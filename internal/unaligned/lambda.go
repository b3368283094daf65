package unaligned

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"dcstream/internal/metrics"
	"dcstream/internal/stats"
)

// LambdaTable is the paper's Λ = {λ_{i,j}} threshold list (§IV-B): for two
// rows containing i and j ones out of N bits, their overlap X(i,j) under the
// null follows a hypergeometric distribution, and λ_{i,j} is the smallest
// threshold with P[X(i,j) > λ_{i,j}] ≤ p*. Using weight-dependent thresholds
// keeps the edge probability uniform across row pairs even though array
// fills differ, which is what makes the induced graph Erdős–Rényi.
//
// Entries are computed lazily and memoized without locks. The table is an
// N+1 × N+1 grid of slots, each holding λ+1 with 0 meaning "not yet
// computed"; it is materialized only where it is used. A row is allocated
// when its weight is first seen, and within a row only the 64-slot chunks
// covering partner weights actually asked for — real arrays occupy a narrow
// weight band, so a row costs a few hundred bytes rather than 4(N+1). A
// value is a pure function of (N, p*, i, j), so two goroutines racing to
// fill one slot store the same number. Hot loops resolve Row(i) once per
// source row and index it per partner weight; a table is safe for
// concurrent use.
type LambdaTable struct {
	n     int
	pstar float64
	rows  []atomic.Pointer[LambdaRow] // by weight i; nil until i is first seen
	stats *LambdaStats
}

// LambdaRow is one weight's row λ_{i,·} of a LambdaTable.
type LambdaRow struct {
	t      *LambdaTable
	i      int
	chunks []atomic.Pointer[lambdaChunk] // slots j>>lambdaChunkShift; nil until used
}

const lambdaChunkShift = 6

// lambdaChunk holds λ_{i,j}+1 for 64 consecutive partner weights j.
type lambdaChunk [1 << lambdaChunkShift]atomic.Int32

// LambdaStats counts the work behind a set of λ tables: Misses is the number
// of thresholds computed (lookups that found an empty slot), Rows the number
// of weight rows allocated.
type LambdaStats struct {
	Misses metrics.Counter
	Rows   metrics.Gauge
}

// NewLambdaTable returns a table for rows of n bits with per-row-pair tail
// probability pstar. The table is private to the caller; SharedLambdaTable
// returns the process-wide instance for the same parameters.
func NewLambdaTable(n int, pstar float64) (*LambdaTable, error) {
	return newLambdaTable(n, pstar, new(LambdaStats))
}

func newLambdaTable(n int, pstar float64, st *LambdaStats) (*LambdaTable, error) {
	if n <= 0 {
		return nil, fmt.Errorf("unaligned: non-positive row width %d", n)
	}
	if pstar <= 0 || pstar >= 1 {
		return nil, fmt.Errorf("unaligned: pstar %v outside (0,1)", pstar)
	}
	return &LambdaTable{n: n, pstar: pstar, rows: make([]atomic.Pointer[LambdaRow], n+1), stats: st}, nil
}

// N returns the row width the table was built for.
func (t *LambdaTable) N() int { return t.n }

// PStar returns the per-row-pair tail probability.
func (t *LambdaTable) PStar() float64 { return t.pstar }

// Threshold returns λ_{i,j} for rows with i and j ones. It panics if i or j
// is outside [0, N]. Loops over many partners of one row should resolve
// Row(i) once and call At instead.
func (t *LambdaTable) Threshold(i, j int) int {
	if i < 0 || i > t.n || j < 0 || j > t.n {
		panic(fmt.Sprintf("unaligned: row weight (%d,%d) outside [0,%d]", i, j, t.n))
	}
	return t.Row(i).At(j)
}

// Row returns λ_{i,·}, allocating it on first use. It panics if i is
// outside [0, N].
func (t *LambdaTable) Row(i int) *LambdaRow {
	if uint(i) < uint(len(t.rows)) {
		if r := t.rows[i].Load(); r != nil {
			return r
		}
	}
	return t.newRow(i)
}

func (t *LambdaTable) newRow(i int) *LambdaRow {
	if uint(i) > uint(t.n) {
		panic(fmt.Sprintf("unaligned: row weight %d outside [0,%d]", i, t.n))
	}
	r := &LambdaRow{t: t, i: i, chunks: make([]atomic.Pointer[lambdaChunk], t.n>>lambdaChunkShift+1)}
	if !t.rows[i].CompareAndSwap(nil, r) {
		return t.rows[i].Load()
	}
	t.stats.Rows.Add(1)
	return r
}

// At returns λ_{i,j} for the row's weight i. It panics if j is outside
// [0, N].
func (r *LambdaRow) At(j int) int {
	if k := uint(j) >> lambdaChunkShift; k < uint(len(r.chunks)) {
		if c := r.chunks[k].Load(); c != nil {
			if v := c[j&(len(c)-1)].Load(); v != 0 {
				return int(v) - 1
			}
		}
	}
	return r.fill(j)
}

// fill computes a missing λ_{i,j} and stores it in both (i,j) and (j,i).
// The computation always runs on the ordered pair (min, max) — X(i,j) is
// symmetric in the two weights, and fixing the argument order keeps every
// value bit-identical to stats.HyperThreshold's whichever order it was
// first asked in.
func (r *LambdaRow) fill(j int) int {
	t := r.t
	if uint(j) > uint(t.n) {
		panic(fmt.Sprintf("unaligned: row weight (%d,%d) outside [0,%d]", r.i, j, t.n))
	}
	lo, hi := r.i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	v := stats.HyperThreshold(t.n, lo, hi, t.pstar)
	t.stats.Misses.Inc()
	r.slot(j).Store(int32(v + 1))
	t.Row(j).slot(r.i).Store(int32(v + 1))
	return v
}

// slot returns the cell for partner weight j, allocating its chunk on first
// use. j must be in [0, N].
func (r *LambdaRow) slot(j int) *atomic.Int32 {
	p := &r.chunks[j>>lambdaChunkShift]
	c := p.Load()
	if c == nil {
		c = new(lambdaChunk)
		if !p.CompareAndSwap(nil, c) {
			c = p.Load()
		}
	}
	return &c[j&(len(c)-1)]
}

// lambdaKey identifies a shared λ table by row width and the bit pattern of
// its tail probability. Keying by bits rather than by float value makes a
// NaN p* (an edge probability above 1 has no p*) find its table again
// instead of growing the registry on every call.
type lambdaKey struct {
	bits  int
	pstar uint64
}

// lambdaRegistry holds the process-wide λ tables. Reads are lock-free loads
// of an immutable map; a miss copies the map under mu and publishes the
// copy. Tables are never evicted: steady state reuses a handful of
// geometries, and each table only holds the weight rows actually seen.
var lambdaRegistry struct {
	mu     sync.Mutex
	tables atomic.Pointer[map[lambdaKey]*LambdaTable] // never nil
	stats  LambdaStats
}

func init() { lambdaRegistry.tables.Store(&map[lambdaKey]*LambdaTable{}) }

// SharedLambdaTable returns the process-wide table for (n, pstar), building
// it on first use. Every caller asking for the same parameters gets the same
// table, so thresholds computed by the ingest-time tracker are reused by
// every later analysis — across centers, too — and sharing can only skip
// recomputing a value, never change one.
func SharedLambdaTable(n int, pstar float64) (*LambdaTable, error) {
	key := lambdaKey{bits: n, pstar: math.Float64bits(pstar)}
	if t, ok := (*lambdaRegistry.tables.Load())[key]; ok {
		return t, nil
	}
	lambdaRegistry.mu.Lock()
	defer lambdaRegistry.mu.Unlock()
	old := *lambdaRegistry.tables.Load()
	if t, ok := old[key]; ok {
		return t, nil
	}
	t, err := newLambdaTable(n, pstar, &lambdaRegistry.stats)
	if err != nil {
		return nil, err
	}
	next := maps.Clone(old)
	next[key] = t
	lambdaRegistry.tables.Store(&next)
	return t, nil
}

// SharedLambdaStats returns the counters of the tables SharedLambdaTable
// hands out: thresholds computed and weight rows allocated, summed over all
// of them.
func SharedLambdaStats() *LambdaStats { return &lambdaRegistry.stats }

// PStarForEdgeProbability converts a target per-vertex-pair edge probability
// p1 into the per-row-pair tail p*, given that each vertex pair compares
// rowPairs row combinations: p1 = 1-(1-p*)^rowPairs.
func PStarForEdgeProbability(p1 float64, rowPairs int) float64 {
	if rowPairs <= 0 || p1 <= 0 {
		return 0
	}
	// p* = 1-(1-p1)^{1/rowPairs}; for tiny p1 this is p1/rowPairs, which is
	// also the numerically stable branch.
	if p1 < 1e-6 {
		return p1 / float64(rowPairs)
	}
	return 1 - math.Pow(1-p1, 1/float64(rowPairs))
}

// EdgeProbabilityForPStar is the inverse conversion.
func EdgeProbabilityForPStar(pstar float64, rowPairs int) float64 {
	if rowPairs <= 0 || pstar <= 0 {
		return 0
	}
	if pstar*float64(rowPairs) < 1e-6 {
		return pstar * float64(rowPairs)
	}
	return 1 - math.Pow(1-pstar, float64(rowPairs))
}
