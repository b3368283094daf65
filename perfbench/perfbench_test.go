package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSelfTimes checks self = duration − union of child intervals on a
// synthetic tree: overlapping children count once, a child sticking out of
// its parent counts only inside it, and grandchildren do not reach the root.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a: union 10..50
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to 90..100
		{Name: "a1", Start: 12, End: 20, Parent: 1},
		{Name: "a2", Start: 15, End: 25, Parent: 1}, // union with a1: 12..25
		{Name: "leaf", Start: 60, End: 60, Parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 13, 20, 30, 8, 10, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestQuartiles pins the steadiness report to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// smoke shrinks a workload to a few routers for the self-tests: every code
// path runs, nothing is measured.
func (w workload) smoke() workload {
	w.routers = 8
	w.pool = max(w.pool, 2)
	w.background = 300
	w.loRate, w.hiRate = 4, 6
	return w
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny scale against a freshly built
// dcsd, end to end and traced, and checks that every metric BENCHMARK.json
// names is reported with its unit and that the gates pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dcsd")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dcsd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dcsd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dcsd: %v\n%s", err, out)
	}
	for _, wl := range spec.Workloads {
		w, err := lookupWorkload(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			o := options{w: w.smoke(), seed: 7, seconds: 3, trace: trace, bin: bin, work: filepath.Join(dir, wl.Name)}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.correct || res.attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v", wl.Name, trace, res.correct, res.attempted, res.failed, res.lines)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				switch {
				case !ok || (res.inJSON != nil && !res.inJSON[m.Name]):
					t.Errorf("%s trace=%v: metric %s not reported", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
