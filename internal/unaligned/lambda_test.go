package unaligned

import (
	"fmt"
	"sync"
	"testing"

	"dcstream/internal/bitvec"
	"dcstream/internal/stats"
)

// lambdaGeometry is one array geometry the collectors produce: n-bit arrays,
// k arrays per group, the vertex count of a typical analysis span, and the
// band [lo, hi] of row weights its background fills produce, planted content
// included (measured on the benchmark fleets' collectors, with margin).
type lambdaGeometry struct {
	n, k, vertices int
	lo, hi         int
}

// pstars returns the tail probabilities the tables are used at: the
// tracker's ingest-time prune and the center's final ER and core graphs.
func (g lambdaGeometry) pstars() []struct {
	name  string
	pstar float64
} {
	rowPairs := g.k * g.k
	return []struct {
		name  string
		pstar float64
	}{
		{"prune", NewTracker(TrackerConfig{}).prunePStar(g.k, g.vertices)},
		{"er", PStarForEdgeProbability(0.5/float64(g.vertices), rowPairs)},
		{"core", PStarForEdgeProbability(8/float64(g.vertices), rowPairs)},
	}
}

var lambdaGeometries = []lambdaGeometry{
	{n: 256, k: 8, vertices: 432, lo: 80, hi: 176},   // 72 routers × 2 groups × a 3-epoch span
	{n: 512, k: 10, vertices: 256, lo: 160, hi: 272}, // 64 routers × 4 groups
}

// TestLambdaTableMatchesHyperThreshold pins the memo to its definition:
// every λ in the collectors' weight band, asked in either order through
// either accessor, equals stats.HyperThreshold on the ordered weight pair.
// The first lookup of a pair alternates between the accessors, so both
// fill paths and both mirror slots are exercised.
func TestLambdaTableMatchesHyperThreshold(t *testing.T) {
	for _, g := range lambdaGeometries {
		for _, p := range g.pstars() {
			pstar := p.pstar
			t.Run(fmt.Sprintf("n=%d/%s", g.n, p.name), func(t *testing.T) {
				lt, err := NewLambdaTable(g.n, pstar)
				if err != nil {
					t.Fatal(err)
				}
				for i := g.lo; i <= g.hi; i++ {
					for j := g.lo; j <= i; j++ {
						want := stats.HyperThreshold(g.n, j, i, pstar)
						var first int
						if (i+j)%2 == 0 {
							first = lt.Threshold(i, j)
						} else {
							first = lt.Row(j).At(i)
						}
						for _, got := range []int{
							first, lt.Threshold(i, j), lt.Threshold(j, i), lt.Row(i).At(j), lt.Row(j).At(i),
						} {
							if got != want {
								t.Fatalf("λ(%d,%d) = %d, HyperThreshold = %d", i, j, got, want)
							}
						}
					}
				}
			})
		}
	}
}

func TestLambdaTableOutOfRangePanics(t *testing.T) {
	lt, _ := NewLambdaTable(64, 1e-3)
	for name, f := range map[string]func(){
		"Threshold": func() { lt.Threshold(3, 65) },
		"Row":       func() { lt.Row(-1) },
		"At":        func() { lt.Row(3).At(65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range weight did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSharedLambdaTableIdentity(t *testing.T) {
	a, err := SharedLambdaTable(128, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SharedLambdaTable(128, 1e-4)
	c, _ := SharedLambdaTable(128, 2e-4)
	if a != b {
		t.Error("same (bits, p*) returned two tables")
	}
	if a == c {
		t.Error("different p* shared one table")
	}
	if _, err := SharedLambdaTable(128, 1); err == nil {
		t.Error("p*=1 accepted")
	}
	// The center's core p* is NaN below 8 vertices (edge probability 8/n
	// above 1); its table must be found again, not rebuilt per call.
	nan := PStarForEdgeProbability(8.0/5, 4)
	d, _ := SharedLambdaTable(128, nan)
	if e, _ := SharedLambdaTable(128, nan); d == nil || d != e {
		t.Errorf("NaN p* table not shared: %p vs %p", d, e)
	}
}

// TestLambdaTableConcurrentMatchesSerial hammers one shared table from 8
// goroutines, each walking the weight band in its own order through all
// three accessors, and checks every value against a serial fill. Run under
// -race it also proves the lock-free fill publishes rows and slots safely.
func TestLambdaTableConcurrentMatchesSerial(t *testing.T) {
	const n, lo, hi, workers = 256, 100, 156, 8
	pstar := PStarForEdgeProbability(0.5/432, 64)
	serial, _ := NewLambdaTable(n, pstar)
	want := make([][]int, hi+1)
	for i := lo; i <= hi; i++ {
		want[i] = make([]int, hi+1)
		for j := lo; j <= hi; j++ {
			want[i][j] = serial.Threshold(i, j)
		}
	}

	shared, _ := NewLambdaTable(n, pstar)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			span := hi - lo + 1
			for s := 0; s < span; s++ {
				i := lo + (s*(2*w+1)+w)%span // a distinct walk per worker
				row := shared.Row(i)
				for s2 := 0; s2 < span; s2++ {
					j := lo + (s2+w*7)%span
					var got int
					switch (i + j + w) % 3 {
					case 0:
						got = row.At(j)
					case 1:
						got = shared.Threshold(i, j)
					default:
						got = shared.Row(j).At(i)
					}
					if got != want[i][j] {
						errs <- fmt.Sprintf("worker %d: λ(%d,%d) = %d, serial %d", w, i, j, got, want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkTrackerAdd measures steady-state digest ingest into the tracker at
// the fleet geometry (64 routers, 4 groups × 10 arrays × 512 bits): each op
// adds one digest, correlating it against the rest of its epoch. One epoch
// of warm-up fills the shared λ tables first, so the lambda-misses/digest metric
// reports the thresholds still computed in steady state — it should be ~0.
func BenchmarkTrackerAdd(b *testing.B) {
	const routers, groups, arrays, bits = 64, 4, 10, 512
	rng := stats.NewRand(41)
	digests := make([]*Digest, routers)
	for r := range digests {
		d := &Digest{RouterID: r, Rows: make([][]*bitvec.Vector, groups)}
		for g := range d.Rows {
			d.Rows[g] = make([]*bitvec.Vector, arrays)
			for a := range d.Rows[g] {
				v := bitvec.New(bits)
				v.FillRandomHalf(rng.Uint64)
				d.Rows[g][a] = v
			}
		}
		digests[r] = d
	}
	tr := NewTracker(TrackerConfig{Reach: 1})
	for _, d := range digests {
		tr.Add(0, d)
	}
	tr.DropEpoch(0)
	misses := SharedLambdaStats().Misses.Load()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := 1 + i/routers
		if i%routers == 0 && epoch > 1 {
			b.StopTimer()
			tr.DropEpoch(epoch - 1)
			b.StartTimer()
		}
		tr.Add(epoch, digests[i%routers])
	}
	b.StopTimer()
	b.ReportMetric(float64(SharedLambdaStats().Misses.Load()-misses)/float64(b.N), "lambda-misses/digest")
}
