package unaligned

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dcstream/internal/bitvec"
	"dcstream/internal/graph"
)

// Vertex names one node of the induced random graph: one flow-split group at
// one router.
type Vertex struct {
	RouterID int
	Group    int
}

// GroupMatrix is the analysis center's view after merging router digests
// vertically (§IV-B): a list of vertices, each owning ArraysPerGroup rows of
// ArrayBits bits.
type GroupMatrix struct {
	arrayBits      int
	arraysPerGroup int
	vertices       []Vertex
	rows           [][]*bitvec.Vector // rows[v][a]
	weights        [][]int            // cached OnesCount per row
}

// Merge stacks router digests into one GroupMatrix. All digests must share
// array geometry: a uniform array count k across every group of every router
// (the λ-table row-pair count k² is a single deployment-wide constant) and a
// uniform array width. Mixed-k digests would silently skew the edge
// probability the ER test is calibrated for, so they are an error here.
func Merge(digests []*Digest) (*GroupMatrix, error) {
	if len(digests) == 0 {
		return nil, fmt.Errorf("unaligned: no digests to merge")
	}
	var gm GroupMatrix
	gm.arrayBits = -1
	gm.arraysPerGroup = -1
	for _, d := range digests {
		for g, rows := range d.Rows {
			if len(rows) == 0 {
				return nil, fmt.Errorf("unaligned: router %d group %d has no arrays", d.RouterID, g)
			}
			if gm.arraysPerGroup == -1 {
				gm.arraysPerGroup = len(rows)
			}
			if len(rows) != gm.arraysPerGroup {
				return nil, fmt.Errorf("unaligned: router %d group %d has %d arrays, want %d",
					d.RouterID, g, len(rows), gm.arraysPerGroup)
			}
			w := make([]int, len(rows))
			for a, r := range rows {
				if gm.arrayBits == -1 {
					gm.arrayBits = r.Len()
				}
				if r.Len() != gm.arrayBits {
					return nil, fmt.Errorf("unaligned: router %d group %d array %d width %d, want %d",
						d.RouterID, g, a, r.Len(), gm.arrayBits)
				}
				w[a] = r.OnesCount()
			}
			gm.vertices = append(gm.vertices, Vertex{RouterID: d.RouterID, Group: g})
			gm.rows = append(gm.rows, rows)
			gm.weights = append(gm.weights, w)
		}
	}
	return &gm, nil
}

// NumVertices returns the number of graph vertices (groups across routers).
func (gm *GroupMatrix) NumVertices() int { return len(gm.vertices) }

// ArrayBits returns the row width.
func (gm *GroupMatrix) ArrayBits() int { return gm.arrayBits }

// ArraysPerGroup returns k, the uniform per-vertex row count Merge enforced.
func (gm *GroupMatrix) ArraysPerGroup() int { return gm.arraysPerGroup }

// Vertex returns the identity of vertex v.
func (gm *GroupMatrix) Vertex(v int) Vertex { return gm.vertices[v] }

// BuildGraph induces the random graph of §IV-B: an edge joins two vertices
// when any pair of their rows shares more ones than the λ threshold for the
// rows' weights. This is the O(k²·n²) pass that dominates the analysis
// cost (§IV-D); rows of one vertex are never compared with each other.
func (gm *GroupMatrix) BuildGraph(lambda *LambdaTable) (*graph.Graph, error) {
	if lambda.N() != gm.arrayBits {
		return nil, fmt.Errorf("unaligned: λ table width %d, matrix width %d", lambda.N(), gm.arrayBits)
	}
	n := len(gm.vertices)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if gm.correlated(u, v, lambda) {
				g.AddEdge(u, v)
			}
		}
	}
	return g, nil
}

// BuildGraphParallel is BuildGraph with the O(k²·n²) correlation pass
// spread over the given number of goroutines (§IV-D's third remedy: the
// work is embarrassingly parallel). workers == 0 means GOMAXPROCS; negative
// values and 1 fall back to the serial path; counts above the vertex count
// are clamped (the extra goroutines would only idle). The result is
// identical at every setting.
func (gm *GroupMatrix) BuildGraphParallel(lambda *LambdaTable, workers int) (*graph.Graph, error) {
	n := len(gm.vertices)
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 2 {
		return gm.BuildGraph(lambda)
	}
	if lambda.N() != gm.arrayBits {
		return nil, fmt.Errorf("unaligned: λ table width %d, matrix width %d", lambda.N(), gm.arrayBits)
	}
	type edge struct{ u, v int32 }
	results := make([][]edge, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []edge
			// Strided row assignment balances the triangular workload.
			for u := w; u < n; u += workers {
				for v := u + 1; v < n; v++ {
					if gm.correlated(u, v, lambda) {
						local = append(local, edge{int32(u), int32(v)})
					}
				}
			}
			results[w] = local
		}(w)
	}
	wg.Wait()
	g := graph.New(n)
	for _, local := range results {
		for _, e := range local {
			g.AddEdge(int(e.u), int(e.v))
		}
	}
	return g, nil
}

// BuildGraphSampled induces the graph on a uniformly chosen subset of the
// vertices (§IV-D's second complexity remedy: "sample 10% of the vertices
// and find a core only in this subset"). It returns the graph plus the
// mapping from sampled-graph vertex ids to original vertex ids.
func (gm *GroupMatrix) BuildGraphSampled(lambda *LambdaTable, sample []int) (*graph.Graph, []int, error) {
	if lambda.N() != gm.arrayBits {
		return nil, nil, fmt.Errorf("unaligned: λ table width %d, matrix width %d", lambda.N(), gm.arrayBits)
	}
	for _, v := range sample {
		if v < 0 || v >= len(gm.vertices) {
			return nil, nil, fmt.Errorf("unaligned: sampled vertex %d out of range", v)
		}
	}
	g := graph.New(len(sample))
	for i := 0; i < len(sample); i++ {
		for j := i + 1; j < len(sample); j++ {
			if gm.correlated(sample[i], sample[j], lambda) {
				g.AddEdge(i, j)
			}
		}
	}
	return g, append([]int(nil), sample...), nil
}

// correlated reports whether the maximal row-pair overlap between vertices u
// and v exceeds the λ threshold for the respective row weights. Two layers
// of early exit keep the common (uncorrelated) case cheap: the overlap can
// never exceed the lighter row's weight, so pairs with min(wu,wv) ≤ λ are
// rejected without touching the bitmaps at all, and the remaining pairs only
// need the threshold decision, not the exact count.
func (gm *GroupMatrix) correlated(u, v int, lambda *LambdaTable) bool {
	ru, rv := gm.rows[u], gm.rows[v]
	wu, wv := gm.weights[u], gm.weights[v]
	for a := range ru {
		lrow := lambda.Row(wu[a])
		for b := range rv {
			t := lrow.At(wv[b])
			minW := wu[a]
			if wv[b] < minW {
				minW = wv[b]
			}
			if minW <= t {
				continue
			}
			if bitvec.AndCountAtLeast(ru[a], rv[b], t+1) {
				return true
			}
		}
	}
	return false
}

// ERTestResult reports the outcome of the Erdős–Rényi statistical test.
type ERTestResult struct {
	// LargestComponent is the test statistic.
	LargestComponent int
	// Threshold is the decision boundary used.
	Threshold int
	// PatternDetected is true when the largest component meets the
	// threshold — the alternative hypothesis ("preferential attachment").
	PatternDetected bool
}

// ERTest runs the statistical test of §IV-B: under the null the graph is
// G(n, p1) with p1 below the 1/n phase transition, so all components are
// O(log n); a planted correlation merges components into a giant one.
func ERTest(g *graph.Graph, threshold int) ERTestResult {
	lc := g.LargestComponent()
	return ERTestResult{
		LargestComponent: lc,
		Threshold:        threshold,
		PatternDetected:  lc >= threshold,
	}
}

// PatternConfig tunes the three-step greedy detector of §IV-B.
type PatternConfig struct {
	// Beta is the core size the min-degree peeling stops at.
	Beta int
	// D is the expansion filter: a non-core vertex survives step 3 only if
	// it has at least D edges into the core.
	D int
}

// Validate reports whether the configuration is usable.
func (c PatternConfig) Validate() error {
	if c.Beta <= 0 {
		return fmt.Errorf("unaligned: Beta must be positive, got %d", c.Beta)
	}
	if c.D < 1 {
		return fmt.Errorf("unaligned: D must be at least 1, got %d", c.D)
	}
	return nil
}

// FindPattern runs the greedy core detector (Figure 10 plus step 3): peel to
// a core of Beta vertices, keep non-core vertices with ≥ D edges into the
// core, find a second core among them, and return the union, sorted.
func FindPattern(g *graph.Graph, cfg PatternConfig) ([]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	core := g.Core(cfg.Beta)
	inCore := make(map[int]bool, len(core))
	for _, v := range core {
		inCore[v] = true
	}
	counts := g.CountEdgesInto(core)
	var keep []int
	for v := 0; v < g.NumVertices(); v++ {
		if !inCore[v] && counts[v] >= cfg.D {
			keep = append(keep, v)
		}
	}
	result := append([]int(nil), core...)
	if len(keep) > 0 {
		h, orig := g.Induced(keep)
		for _, v := range h.Core(cfg.Beta) {
			result = append(result, orig[v])
		}
	}
	sort.Ints(result)
	return result, nil
}
