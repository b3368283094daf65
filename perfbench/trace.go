package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/center"
	"dcstream/internal/journal"
	"dcstream/internal/metrics"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is an index into the tracer's spans or -1; trace is
// the epoch the call served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, trace int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Trace: trace})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// selfTimes returns each span's duration minus the part of its interval
// covered by the union of its children's intervals.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nopSender stands in for a shard connection: routing cost without a
// network.
type nopSender struct{}

func (nopSender) Send(transport.Message) error { return nil }

// layerStats are the traced run's per-layer figures.
type layerStats struct {
	selfNs      map[string][]float64 // self time of each span, by name
	digests     int
	ingestA     []float64 // center.ingest self time, aligned digests (µs)
	ingestU     []float64 // center.ingest self time, unaligned digests (µs)
	bufferedMax int64
	trackerMax  int64
	rowPairs    int64
	edges       int64
	andNsPerKb  float64
	lambdaNs    float64
	replayUs    float64 // per frame
	fsyncP50ms  float64
	overheadNs  float64 // cost of recording one span
	spans       int
	epochs      int
}

// tracedReplay replays the run's epochs in process through each layer's
// public functions, recording a span around every call: frame encode and
// decode, journal append (fsync per append, as dcsd's default), the shard
// coordinator's routing, center ingest and analyze, and — as separate
// replays over the same digests — the unaligned tracker and aligned
// accumulator the center drives internally. It stops at the deadline.
func tracedReplay(w workload, epochs []*sentEpoch, dir string, deadline time.Time) (*layerStats, *tracer, error) {
	tr := newTracer()
	ls := &layerStats{selfNs: map[string][]float64{}}
	jdir := filepath.Join(dir, "trace-journal")
	if err := os.RemoveAll(jdir); err != nil {
		return nil, nil, err
	}
	j, err := journal.Open(jdir, journal.Options{SyncEveryAppend: true})
	if err != nil {
		return nil, nil, err
	}
	reg := metrics.NewRegistry()
	j.RegisterMetrics(reg)
	c := center.New(center.Config{WindowSlide: w.slide})
	part := shard.Partition{Shards: max(w.shards, 2), Slide: w.slide}
	senders := make([]shard.Sender, part.Shards)
	for i := range senders {
		senders[i] = nopSender{}
	}
	co := shard.NewCoordinator(part, senders)
	track := unaligned.NewTracker(unaligned.TrackerConfig{Reach: w.slide})
	var buf bytes.Buffer
	isUnaligned := map[int]bool{}
	inTracker := map[unaligned.MemberRef]bool{}
	members := map[int][]unaligned.MemberRef{} // tracker members per epoch, arrival order
	for _, se := range epochs {
		if time.Now().After(deadline) {
			break
		}
		e := se.epoch
		root := tr.begin("epoch", -1, e)
		acc := aligned.NewAccumulator()
		accRows := map[int]*bitvec.Vector{}
		for _, o := range se.msgs {
			ds := tr.begin("digest", root, e)
			s := tr.begin("transport.encode", ds, e)
			buf.Reset()
			err := transport.Write(&buf, o.m)
			tr.end(s)
			if err != nil {
				j.Close()
				return nil, nil, err
			}
			s = tr.begin("transport.decode", ds, e)
			m, err := transport.Read(&buf)
			tr.end(s)
			if err != nil {
				j.Close()
				return nil, nil, err
			}
			s = tr.begin("journal.append", ds, e)
			err = j.Append(m)
			tr.end(s)
			if err != nil {
				j.Close()
				return nil, nil, err
			}
			s = tr.begin("shard.route", ds, e)
			co.Route(m)
			tr.end(s)
			s = tr.begin("center.ingest", ds, e)
			c.Ingest(m)
			tr.end(s)
			isUnaligned[s] = isUnalignedMsg(m)
			tr.end(ds)
			ls.digests++
			ls.bufferedMax = max(ls.bufferedMax, c.BufferedBytes())

			// The center's ingest-time layers, replayed on their own.
			switch d := m.(type) {
			case transport.UnalignedDigest:
				ref := unaligned.MemberRef{Epoch: d.Epoch, Router: d.Digest.RouterID}
				if o.kind == kindStale {
					break // dcsd drops it before any layer sees it
				}
				if inTracker[ref] {
					s = tr.begin("unaligned.tracker_remove", -1, e)
					track.Remove(d.Epoch, d.Digest.RouterID)
					tr.end(s)
				}
				others := 0
				for x := d.Epoch - w.slide + 1; x <= d.Epoch+w.slide-1; x++ {
					others += len(members[x])
				}
				if inTracker[ref] {
					others--
				}
				ls.rowPairs += rowPairs(w, others)
				s = tr.begin("unaligned.tracker_add", -1, e)
				track.Add(d.Epoch, d.Digest)
				tr.end(s)
				if !inTracker[ref] {
					members[d.Epoch] = append(members[d.Epoch], ref)
				}
				inTracker[ref] = true
				ls.trackerMax = max(ls.trackerMax, track.Bytes())
			case transport.AlignedDigest:
				if o.kind == kindStale {
					break
				}
				s = tr.begin("aligned.acc_add", -1, e)
				if old, ok := accRows[d.RouterID]; ok {
					acc.Remove(d.RouterID, old)
				}
				acc.Add(d.RouterID, d.Bitmap)
				tr.end(s)
				accRows[d.RouterID] = d.Bitmap
			}
		}
		s := tr.begin("center.analyze", root, e)
		_, err = c.Analyze(e)
		tr.end(s)
		if err != nil {
			j.Close()
			return nil, nil, fmt.Errorf("traced analyze %d: %w", e, err)
		}
		tr.end(root)
		if acc.Rows() > 1 {
			s = tr.begin("aligned.detect", -1, e)
			m, _ := acc.Matrix()
			_, err := aligned.Detect(m, aligned.RefinedConfig(512))
			tr.end(s)
			if err != nil {
				j.Close()
				return nil, nil, err
			}
		}
		if w.groups > 0 {
			ls.edges += spanEdges(track, members, e, w.slide)
			s = tr.begin("unaligned.drop_epoch", -1, e)
			track.DropEpoch(e - w.slide + 1)
			tr.end(s)
			for _, ref := range members[e-w.slide+1] {
				delete(inTracker, ref)
			}
			delete(members, e-w.slide+1)
		}
		ls.epochs++
		if err := j.EpochAnalyzed(e); err != nil {
			j.Close()
			return nil, nil, err
		}
	}
	// Journal recovery cost: open a journal holding the last epochs as a
	// crash would leave them and replay it, the journal's own share of
	// dcsd's set-up (the replayed digests' ingest is center cost).
	if err := j.Close(); err != nil {
		return nil, nil, err
	}
	if q, n := histQuantile([]map[string]float64{scrapeRegistry(reg)}, "dcs_journal_fsync_seconds", 0.5); n > 0 {
		ls.fsyncP50ms = q * 1e3
	}
	if len(epochs) > 0 {
		rdir := filepath.Join(dir, "trace-replay")
		if err := os.RemoveAll(rdir); err != nil {
			return nil, nil, err
		}
		var msgs []transport.Message
		for _, se := range epochs[len(epochs)-min(len(epochs), 3):] {
			for _, o := range se.msgs {
				msgs = append(msgs, o.m)
			}
		}
		if err := appendJournal(rdir, msgs); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		rj, err := journal.Open(rdir, journal.Options{})
		if err != nil {
			return nil, nil, err
		}
		n := 0
		err = rj.Replay(func(transport.Message) error { n++; return nil })
		el := time.Since(start)
		rj.Close()
		if err != nil {
			return nil, nil, err
		}
		if n > 0 {
			ls.replayUs = float64(el.Microseconds()) / float64(n)
		}
	}
	ls.andNsPerKb, ls.lambdaNs = kernelCosts(w, epochs)
	ls.overheadNs = spanOverhead()

	self := selfTimes(tr.spans)
	for i, sp := range tr.spans {
		ls.selfNs[sp.Name] = append(ls.selfNs[sp.Name], float64(self[i]))
		if sp.Name == "center.ingest" {
			if isUnaligned[i] {
				ls.ingestU = append(ls.ingestU, float64(self[i])/1e3)
			} else {
				ls.ingestA = append(ls.ingestA, float64(self[i])/1e3)
			}
		}
	}
	ls.spans = len(tr.spans)
	return ls, tr, nil
}

func isUnalignedMsg(m transport.Message) bool {
	_, ok := m.(transport.UnalignedDigest)
	return ok
}

// rowPairs counts the row pairs one tracker Add correlates, the
// denominator of the edge yield: the digest's intra-router group pairs plus
// every row pair against each of the others members within reach.
func rowPairs(w workload, others int) int64 {
	rows := int64(w.groups * w.arrays)
	intra := int64(w.groups*(w.groups-1)/2) * int64(w.arrays*w.arrays)
	return intra + rows*rows*int64(others)
}

// spanEdges counts the ER-graph edges the tracker's evidence admits for the
// span ending at e, at the threshold the center's analysis uses.
func spanEdges(t *unaligned.Tracker, members map[int][]unaligned.MemberRef, e, slide int) int64 {
	var order []unaligned.MemberRef
	for x := e - slide + 1; x <= e; x++ {
		order = append(order, members[x]...)
	}
	ev := t.Snapshot(order)
	if !ev.Usable() || ev.NumVertices() == 0 {
		return 0
	}
	p1 := 0.5 / float64(ev.NumVertices())
	lt, err := unaligned.NewLambdaTable(ev.Bits(), unaligned.PStarForEdgeProbability(p1, ev.Arrays()*ev.Arrays()))
	if err != nil {
		return 0
	}
	return int64(len(ev.Edges(lt)))
}

// kernelCosts times the AND-popcount kernel over the run's own bitmaps and
// the λ threshold lookup over its row weights.
func kernelCosts(w workload, epochs []*sentEpoch) (andNsPerKbit, lambdaNs float64) {
	var vecs []*bitvec.Vector
	for _, se := range epochs {
		for _, o := range se.msgs {
			switch d := o.m.(type) {
			case transport.AlignedDigest:
				if w.groups == 0 {
					vecs = append(vecs, d.Bitmap)
				}
			case transport.UnalignedDigest:
				for _, g := range d.Digest.Rows {
					vecs = append(vecs, g...)
				}
			}
			if len(vecs) >= 2048 {
				break
			}
		}
	}
	if len(vecs) < 2 {
		return 0, 0
	}
	pairs, bits := 0, 0
	sink := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for i := 1; i < len(vecs); i++ {
			sink += bitvec.AndCount(vecs[i-1], vecs[i])
			bits += vecs[i].Len()
			pairs++
		}
	}
	andNsPerKbit = float64(time.Since(start).Nanoseconds()) / (float64(bits) / 1000)
	if w.groups > 0 {
		lt, err := unaligned.NewLambdaTable(w.arrayBits, unaligned.PStarForEdgeProbability(0.5/float64(w.routers*w.groups), w.arrays*w.arrays))
		if err == nil {
			ws := make([]int, len(vecs))
			for i, v := range vecs {
				ws[i] = v.OnesCount()
			}
			n := 0
			start = time.Now()
			for time.Since(start) < 50*time.Millisecond {
				for i := 1; i < len(ws); i++ {
					sink += lt.Threshold(ws[i-1], ws[i])
					n++
				}
			}
			lambdaNs = float64(time.Since(start).Nanoseconds()) / float64(n)
		}
	}
	kernelSink = sink
	return andNsPerKbit, lambdaNs
}

var kernelSink int

// spanOverhead is the cost of recording one empty span.
func spanOverhead() float64 {
	t := newTracer()
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1, 0))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

func scrapeRegistry(reg *metrics.Registry) map[string]float64 {
	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		return nil
	}
	m, err := metrics.ParseText(&b)
	if err != nil {
		return nil
	}
	return m
}
