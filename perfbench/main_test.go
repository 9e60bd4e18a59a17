package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenRoot makes a checkout root whose golden/ holds the repo's digest
// files, with tamper applied to the Plan3D goldens.
func goldenRoot(t *testing.T, tamper func(goldens)) string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plan3d_digest.json", "table2_digest.json"} {
		g, err := loadGoldens(filepath.Join("..", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "plan3d_digest.json" {
			tamper(g)
		}
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "golden", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// One pass of plan3d-cold over the goldens as checked in is correct; the
// same pass with one expected digest altered fails exactly that op, and the
// run is marked incorrect (main then exits nonzero).
func TestTamperedGoldenFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("plans all 18 Plan3D points twice")
	}
	for _, tc := range []struct {
		name   string
		tamper func(goldens)
		failed int
	}{
		{"as-checked-in", func(goldens) {}, 0},
		{"tampered", func(g goldens) { g["OPT-6.7B@8"] = "0" + g["OPT-6.7B@8"][1:] }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config{Root: goldenRoot(t, tc.tamper), Seed: 1, Seconds: 1e-9, Log: io.Discard}
			res, err := runWorkload("plan3d-cold", workloads["plan3d-cold"], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted != 18 || res.Failed != tc.failed || res.Correct != (tc.failed == 0) {
				t.Fatalf("attempted %d failed %d correct %v, want 18 / %d / %v",
					res.Attempted, res.Failed, res.Correct, tc.failed, tc.failed == 0)
			}
			if got, want := res.Metrics["success_rate"].Value, float64(18-tc.failed)/18; got != want {
				t.Fatalf("success_rate %v, want %v", got, want)
			}
		})
	}
}

// A golden file missing one of the workload's points is a set-up error, not
// a silently skipped check.
func TestMissingGoldenIsSetupError(t *testing.T) {
	cfg := config{Root: goldenRoot(t, func(g goldens) { delete(g, "BLOOM-176B@32") }), Seed: 1, Seconds: 1e-9, Log: io.Discard}
	if _, err := runWorkload("plan3d-cold", workloads["plan3d-cold"], cfg); err == nil {
		t.Fatal("run with a missing golden digest succeeded")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{on: true}
	r.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: union 10..60
		{Name: "c", Start: 80, End: 90, Parent: 0},
	}
	s := r.summary()
	if got := s["op"].SelfMS; got != 40e-6 {
		t.Fatalf("op self time %v ms, want 40e-6", got)
	}
	if got := s["a"].SelfMS; got != 30e-6 {
		t.Fatalf("leaf self time %v ms, want its duration 30e-6", got)
	}
}

// At twice the reference probe time the host runs at half speed: times
// halve, rates double, and every other metric is left as measured.
func TestNormalizeScalesWallTimes(t *testing.T) {
	res := &result{Metrics: map[string]metric{}}
	res.set("setup_s", "s", 2)
	res.set("op_ms_p50", "ms", 10)
	res.set("op_ms_p90", "ms", 30)
	res.set("ops_per_s", "1/s", 5)
	res.set("alloc_mb_per_op", "MB", 7)
	p := &prober{ms: []float64{2 * probeNominalMS, 2 * probeNominalMS, 100}}
	if err := normalize(res, p); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 1, "op_ms_p50": 5, "op_ms_p90": 15, "ops_per_s": 10, "alloc_mb_per_op": 7}
	for name, v := range want {
		if got := res.Metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if err := normalize(res, &prober{}); err == nil {
		t.Error("normalize with no probe samples succeeded")
	}
}

// The probe kernel's chase table is one cycle through every index, so no
// chase settles into a short, cache-resident loop.
func TestProbeCycleIsSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 32 MB probe table")
	}
	k := newProbeKernel()
	j, n := uint32(0), 0
	for {
		j = k.cycle[j]
		n++
		if j == 0 {
			break
		}
	}
	if n != len(k.cycle) {
		t.Fatalf("cycle from 0 has length %d, want %d", n, len(k.cycle))
	}
}
