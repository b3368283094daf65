// Command perfbench is the end-to-end benchmark of the dcsd pipeline. It
// starts the real dcsd binary (one daemon, or a coordinator with shards),
// drives it over loopback from one generator process with seeded digests
// built the way dcsnode builds them, reads verdicts from the daemon's
// -events stream and its ledger from /metrics, checks both against an
// in-process reference, and prints every metric by name and unit. The last
// line of standard output is one JSON object.
//
//	perfbench -workload fleet-udp -seed 1 -seconds 30 -trace 0
//
// With -trace 1 it runs a shorter end-to-end phase and then replays the same
// digests in process through each layer's public functions, recording spans,
// and prints the per-layer metrics instead. With -steady N it repeats the run
// on N seeds and prints each metric's median, quartiles and range. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type options struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	bin     string
	work    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	correct   bool
	attempted int
	failed    int
	names     []string // metric print order
	metrics   map[string]metric
	inJSON    map[string]bool // nil: every metric goes into the JSON line
	samples   map[string]int
	lines     []string // human-readable report
}

func (r *result) set(name string, v float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

const (
	setupsBefore = 8
	setupsAfter  = 7
	warmupEpochs = 3
	firstLive    = 101 // live epochs start above any recovered journal epoch
)

func main() {
	var (
		wname   = flag.String("workload", "", "workload: fleet-udp, durable-sharded or sliding-churn")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measured time per run")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		steady  = flag.Int("steady", 0, "repeat the run on N consecutive seeds and print each metric's spread")
		bin     = flag.String("dcsd", ".bench_build/bin/dcsd", "dcsd binary")
		work    = flag.String("work", ".bench_build/work", "directory for journals, daemon logs and traces")
	)
	flag.Parse()
	w, err := lookupWorkload(*wname)
	if err != nil {
		fatal(err)
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work}
	if _, err := os.Stat(o.bin); err != nil {
		fatal(fmt.Errorf("dcsd binary: %w", err))
	}
	if *steady > 0 {
		if err := steadiness(o, *steady); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	emit(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func emit(res *result) {
	for _, l := range res.lines {
		fmt.Println(l)
	}
	for _, n := range res.names {
		m := res.metrics[n]
		fmt.Printf("metric %-40s %14.6g %-10s n=%d\n", n, m.Value, m.Unit, res.samples[n])
	}
	out := map[string]metric{}
	for n, m := range res.metrics {
		if res.inJSON == nil || res.inJSON[n] {
			out[n] = m
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// hostSteal reads the steal and total jiffies of /proc/stat's cpu line:
// time a virtual machine's CPUs waited for the host. Zeros when unreadable.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// fsName names the filesystem holding dir, for the environment record.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func environment(o options) string {
	gomax := os.Getenv("GOMAXPROCS")
	if gomax == "" {
		gomax = fmt.Sprintf("default(%d)", runtime.NumCPU())
	}
	return fmt.Sprintf("env: nproc=%d generator_gomaxprocs=%d dcsd_gomaxprocs=%s go=%s journal_fs=%s loopback=127.0.0.1 tick=%v lo_rate=%g/s hi_rate=%g/s (epochs; %d digests each) routers=%d transport=%s shards=%d slide=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gomax, runtime.Version(), fsName(o.work), tick,
		o.w.loRate, o.w.hiRate, o.w.digestsPerEpoch(), o.w.routers, o.w.transport, o.w.shards, o.w.slide)
}

// nonStale counts the digests in epochs that dcsd should ingest.
func nonStale(es []*sentEpoch) (n, resends, stale int64) {
	for _, se := range es {
		for _, o := range se.msgs {
			switch o.kind {
			case kindStale:
				stale++
			case kindResend:
				resends++
				n++
			default:
				n++
			}
		}
	}
	return n, resends, stale
}

func run(o options) (res *result, err error) {
	w := o.w
	res = &result{metrics: map[string]metric{}, samples: map[string]int{}}
	res.logf("perfbench: workload=%s seed=%d seconds=%g trace=%v", w.name, o.seed, o.seconds, o.trace)
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	res.logf("%s", environment(o))
	in, err := newInputs(w, o.seed)
	if err != nil {
		return nil, err
	}

	var recovered []*sentEpoch
	recoveredWrong := false
	journalFrames := 0
	tmpl := filepath.Join(o.work, "journal-template")
	jdir := filepath.Join(o.work, "journal")
	if w.journal {
		if err := os.RemoveAll(tmpl); err != nil {
			return nil, err
		}
		var es []int
		es, journalFrames, err = writeJournals(in, tmpl)
		if err != nil {
			return nil, err
		}
		for _, e := range es {
			recovered = append(recovered, &sentEpoch{epoch: e, phase: phaseRecovered, msgs: in.epoch(e, 1)})
		}
	}

	// Set-up, several times before the measured phases and again after
	// them, so the median spans two moments of the host; the last launch
	// before serves the run.
	launchFresh := func() (*deployment, error) {
		if w.journal {
			if err := os.RemoveAll(jdir); err != nil {
				return nil, err
			}
			if err := copyDir(tmpl, jdir); err != nil {
				return nil, err
			}
		}
		return launch(w, o.bin, o.work)
	}
	var setups []float64
	setupOnly := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := launchFresh()
			if err != nil {
				return err
			}
			setups = append(setups, d.setup.Seconds())
			if err := d.stop(true); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setupOnly(setupsBefore - 1); err != nil {
		return nil, err
	}
	dep, err := launchFresh()
	if err != nil {
		return nil, err
	}
	setups = append(setups, dep.setup.Seconds())
	stopped := false
	defer func() {
		if !stopped {
			_ = dep.stop(true) // error path: the run already failed
		}
	}()

	if len(recovered) > 0 {
		if err := awaitRecovery(dep, len(recovered)); err != nil {
			return nil, err
		}
	}

	s, err := newSender(w, dep.ingest)
	if err != nil {
		return nil, err
	}
	senderClosed := false
	defer func() {
		if !senderClosed {
			s.close()
		}
	}()
	gen := &generator{w: w, in: in, dep: dep, s: s, next: firstLive, first: firstLive}
	scrape := func() (counts, error) {
		sc, err := dep.scrapeAll()
		if err != nil {
			return counts{}, err
		}
		return sumCounts(sc, len(dep.daemons)-1, w.shards > 0), nil
	}

	secs := time.Duration(o.seconds * float64(time.Second))
	closedDur := secs * 25 / 100
	if o.trace {
		closedDur = secs * 35 / 100
	}
	if _, _, err := gen.closedLoop(phaseWarmup, 0, warmupEpochs); err != nil {
		return nil, err
	}
	c1, err := scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := dep.cpuTicks()
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	closed, wall, err := gen.closedLoop(phaseClosed, closedDur, 3)
	if err != nil {
		return nil, err
	}
	c2, err := scrape()
	if err != nil {
		return nil, err
	}
	phaseCounts := map[phase]counts{phaseClosed: c2.sub(c1)}
	var lo, hi []*sentEpoch
	if !o.trace {
		lo, err = gen.openLoop(phaseLo, secs*45/100, w.loRate)
		if err != nil {
			return nil, err
		}
		c3, err := scrape()
		if err != nil {
			return nil, err
		}
		hi, err = gen.openLoop(phaseHi, secs*30/100, w.hiRate)
		if err != nil {
			return nil, err
		}
		c4, err := scrape()
		if err != nil {
			return nil, err
		}
		phaseCounts[phaseLo], phaseCounts[phaseHi] = c3.sub(c2), c4.sub(c3)
	}
	if err := settle(dep, s, scrape); err != nil {
		return nil, err
	}
	cpu1, err := dep.cpuTicks()
	if err != nil {
		return nil, err
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		res.logf("host: %.1f%% of CPU time stolen by the hypervisor while measuring", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	final, err := scrape()
	if err != nil {
		return nil, err
	}
	finalScrapes, err := dep.scrapeAll()
	if err != nil {
		return nil, err
	}
	rss, err := dep.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	s.close()
	senderClosed = true
	dropped := s.dropped()
	stopped = true
	if err := dep.stop(false); err != nil {
		return nil, fmt.Errorf("stopping dcsd: %w", err)
	}
	if dep.events.dups > 0 {
		res.logf("gate: %d epochs produced more than one event", dep.events.dups)
	}
	if err := setupOnly(setupsAfter); err != nil {
		return nil, err
	}
	res.logf("setup samples (ms): %s", fmtSamples(scaled(setups, 1e3)))
	res.set("setup_s", median(setups), "s", len(setups))

	// End-to-end metrics.
	closedN, _, _ := nonStale(closed)
	res.set("capacity_dps", float64(closedN)/wall.Seconds(), "digests/s", len(closed))
	measured := final.sub(c1)
	ingested := measured.ingested + measured.replaced
	cpuUs := float64(cpu1-cpu0) / clockTicks * 1e6 / ingested
	if !o.trace {
		for _, p := range []struct {
			name string
			es   []*sentEpoch
		}{{"lo", lo}, {"hi", hi}} {
			var lat []float64
			for _, se := range p.es {
				if r, ok := dep.events.get(se.epoch); ok {
					lat = append(lat, float64(r.at.Sub(se.due).Microseconds())/1e3)
				}
			}
			res.logf("latency %s samples (ms): %s", p.name, fmtSamples(lat))
			res.set("lat_p50_ms."+p.name, quantile(lat, 0.5), "ms", len(lat))
			res.set("lat_p90_ms."+p.name, quantile(lat, 0.9), "ms", len(lat))
		}
	}
	res.set("cpu_us_per_digest", cpuUs, "us", int(ingested))
	res.set("peak_rss_mb", rss, "MB", len(dep.daemons))

	// Generator honesty: how late each open-loop burst started.
	honest := true
	if !o.trace {
		for _, p := range []struct {
			name string
			es   []*sentEpoch
			rate float64
		}{{"lo", lo, w.loRate}, {"hi", hi, w.hiRate}} {
			var late []float64
			for _, se := range p.es {
				late = append(late, float64(se.start.Sub(se.due).Microseconds())/1e3)
			}
			p50, p90 := quantile(late, 0.5), quantile(late, 0.9)
			limit := math.Max(5, 100/p.rate) // 10% of the period, at least 5 ms
			res.logf("generator %s: gen_late_ms p50=%.3f p90=%.3f over %d bursts (limit %.1f ms)", p.name, p50, p90, len(late), limit)
			if p90 > limit {
				honest = false
				res.logf("gate: INVALID RUN: the generator fell behind its %s schedule", p.name)
			}
		}
	}

	// Ledger gate over the whole run.
	sent, resends, stale := nonStale(gen.sent)
	ledgerBad := ledgerGate(final, sent+stale, resends, stale, dropped, journalFrames, w.shards > 0)
	res.logf("ledger: sent=%d (resends %d, stale %d) recovered=%d delivered=%.0f ingested=%.0f replaced=%.0f late=%.0f duplicate=%.0f rejected=%.0f shed=%.0f misrouted=%.0f udp_lost_datagrams=%.0f sender_dropped=%d",
		sent+stale, resends, stale, journalFrames, final.delivered(), final.ingested, final.replaced, final.late, final.duplicate,
		final.rejected, final.shed, final.misrouted, final.udpLost, dropped)
	for _, b := range ledgerBad {
		res.logf("gate: LEDGER: %s", b)
	}

	// Loss per open-loop phase: digests sent but not ingested. Stale
	// copies are late by construction and not counted.
	lossOK := true
	var lossSent, lossLost float64
	for _, p := range []struct {
		ph phase
		es []*sentEpoch
	}{{phaseLo, lo}, {phaseHi, hi}} {
		if p.es == nil {
			continue
		}
		n, _, _ := nonStale(p.es)
		pc := phaseCounts[p.ph]
		lost := float64(n) - (pc.ingested + pc.replaced)
		lossSent += float64(n)
		lossLost += lost
		res.logf("loss %s: %.0f of %d digests not ingested", p.ph, lost, n)
		if p.ph == phaseLo && lost != 0 {
			lossOK = false
		}
	}
	if lossSent > 0 {
		res.logf("loss_ratio %.6f ratio", lossLost/lossSent)
	}

	// Verdict gate against the in-process reference. A recovered epoch's
	// verdict is compared when the coordinator emitted it; it is not an
	// attempted epoch, because the coordinator drops a recovered report
	// that arrives below its merge watermark (counted in
	// dcs_shard_reports_duplicate_total), and that race decides how many
	// arrive.
	refs, err := reference(w, append(recovered, gen.sent...))
	if err != nil {
		return nil, err
	}
	var recRefs []refEpoch
	if len(recovered) > 0 {
		recRefs, refs = refs[:len(recovered)], refs[len(recovered):]
		var arrived []refEpoch
		var dropped []int
		for _, r := range recRefs {
			if _, ok := dep.events.get(r.epoch); ok {
				arrived = append(arrived, r)
			} else {
				dropped = append(dropped, r.epoch)
			}
		}
		rf, _, rl := verdictGate(in, arrived, dep.events)
		for _, l := range rl {
			res.logf("gate: VERDICT: %s", l)
		}
		res.logf("recovered: %d epochs replayed from the shard journals; %d verdicts emitted (%d wrong), dropped at the merge watermark: %v",
			len(recRefs), len(arrived), rf[phaseRecovered], dropped)
		if rf[phaseRecovered] > 0 {
			recoveredWrong = true
		}
	}
	failed, attempted, lines := verdictGate(in, refs, dep.events)
	for _, l := range lines {
		res.logf("gate: VERDICT: %s", l)
	}
	totalA, totalF := 0, 0
	for p := phase(0); p < numPhases; p++ {
		totalA += attempted[p]
		totalF += failed[p]
		if attempted[p] > 0 {
			res.logf("verdicts %s: %d of %d epochs failed", p, failed[p], attempted[p])
		}
	}
	res.logf("fail_ratio %.6f ratio (%d of %d epochs)", float64(totalF)/float64(totalA), totalF, totalA)
	if hit, planted := unalignedRecall(in, refs); planted > 0 {
		res.logf("unaligned recall: %d of %d planted epochs name at least one carrier (reported, not gated)", hit, planted)
	}
	res.attempted, res.failed = totalA, totalF
	// Failures outside the lo phase are dcsd's own doing when its ledgers
	// say so: digests it counted late or lost, or spans the coordinator
	// gave up on and reported as Degraded tombstones.
	explained := lossLost > 0 || final.late > float64(stale) || final.synthesized > 0
	res.correct = len(ledgerBad) == 0 && failed[phaseLo] == 0 && lossOK && honest && dep.events.dups == 0 && !recoveredWrong &&
		(explained || totalF == 0)

	if o.trace {
		if err := traced(o, res, gen.sent, cpuUs, finalScrapes); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return strings.Join(parts, " ")
}

// settle waits until nothing the generator sent is still on its way: the
// TCP clients have written their buffers and the daemons' ledgers stop
// moving, with every decoded digest accounted for. An epoch's event can
// precede the tail of its burst when dcsd closes the epoch early.
func settle(dep *deployment, s *sender, scrape func() (counts, error)) error {
	for _, t := range s.tcp {
		if left := t.Flush(eventTimeout); left > 0 {
			return fmt.Errorf("%d digests still buffered in a client after %v", left, eventTimeout)
		}
	}
	deadline := time.Now().Add(eventTimeout)
	prev, err := scrape()
	if err != nil {
		return err
	}
	for {
		time.Sleep(2 * tick)
		cur, err := scrape()
		if err != nil {
			return err
		}
		if cur == prev && cur.accounted() == cur.delivered()+cur.replayed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dcsd ledgers still moving after %v", eventTimeout)
		}
		prev = cur
	}
}

// awaitRecovery waits until the shards have analyzed every recovered epoch
// and the coordinator has gathered their reports, so live traffic starts on
// a settled deployment.
func awaitRecovery(dep *deployment, n int) error {
	deadline := time.Now().Add(eventTimeout)
	for {
		sc, err := dep.scrapeAll()
		if err != nil {
			return err
		}
		analyzed := 0.0
		for _, m := range sc[:len(sc)-1] {
			analyzed += m["dcs_center_epochs_analyzed_total"]
		}
		if analyzed >= float64(n) && sc[len(sc)-1]["dcs_shard_reports_total"] >= float64(n) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards analyzed %.0f of %d recovered epochs", analyzed, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// traced adds the per-layer metrics: the in-process span replay plus the
// e2e daemon's own instruments.
func traced(o options, res *result, epochs []*sentEpoch, cpuUs float64, scrapes []map[string]float64) error {
	w := o.w
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second) * 0.6))
	ls, tr, err := tracedReplay(w, epochs, o.work, deadline)
	if err != nil {
		return err
	}
	path := filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.jsonl", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	res.logf("trace: %d spans over %d epochs, %d digests written to %s; recording one span costs %.0f ns", ls.spans, ls.epochs, ls.digests, path, ls.overheadNs)
	us := func(name string, q float64) (float64, int) {
		xs := ls.selfNs[name]
		return quantile(xs, q) / 1e3, len(xs)
	}
	res.inJSON = map[string]bool{}
	put := func(name string, v float64, unit string, n int, inJSON bool) {
		res.inJSON[name] = inJSON
		res.set(name, v, unit, n)
	}
	v, n := us("center.ingest", 0.5)
	put("center.ingest_us.p50", v, "us", n, true)
	v, n = us("center.ingest", 0.9)
	put("center.ingest_us.p90", v, "us", n, true)
	v, n = us("center.analyze", 0.5)
	put("center.analyze_ms.p50", v/1e3, "ms", n, true)
	v, n = us("center.analyze", 0.9)
	put("center.analyze_ms.p90", v/1e3, "ms", n, true)
	if q, cnt := histQuantile(scrapes, "dcs_center_finalize_seconds", 0.5); cnt > 0 {
		put("center.finalize_ms.p50", q*1e3, "ms", int(cnt), true)
		q99, _ := histQuantile(scrapes, "dcs_center_finalize_seconds", 0.99)
		put("center.finalize_ms.p99", q99*1e3, "ms", int(cnt), false)
	}
	put("center.buffered_bytes.peak", float64(ls.bufferedMax), "bytes", ls.digests, true)
	v, n = us("transport.encode", 0.5)
	put("transport.tcp_encode_us", v, "us", n, true)
	v, n = us("transport.decode", 0.5)
	put("transport.tcp_decode_us", v, "us", n, true)
	v, n = us("journal.append", 0.5)
	put("journal.append_us.p50", v, "us", n, true)
	v, n = us("journal.append", 0.9)
	put("journal.append_us.p90", v, "us", n, true)
	put("journal.replay_us_per_frame", ls.replayUs, "us", 1, true)
	v, n = us("shard.route", 0.5)
	put("shard.route_us.p50", v, "us", n, true)
	put("bitvec.andcount_ns_per_kbit", ls.andNsPerKb, "ns", 1, true)

	// Workload-specific layers: printed, not part of the JSON (a layer the
	// workload lacks has no value to report).
	if q, cnt := histQuantile(scrapes, "dcs_journal_fsync_seconds", 0.5); cnt > 0 {
		put("journal.fsync_ms.p50", q*1e3, "ms", int(cnt), false)
	}
	put("journal.fsync_ms.p50.traced", ls.fsyncP50ms, "ms", len(ls.selfNs["journal.append"]), false)
	if len(ls.ingestU) > 0 {
		put("center.ingest_us.unaligned.p50", quantile(ls.ingestU, 0.5), "us", len(ls.ingestU), false)
		put("center.ingest_us.unaligned.p90", quantile(ls.ingestU, 0.9), "us", len(ls.ingestU), false)
		v, n = us("unaligned.tracker_add", 0.5)
		put("unaligned.tracker_add_us.p50", v, "us", n, false)
		v, n = us("unaligned.tracker_add", 0.9)
		put("unaligned.tracker_add_us.p90", v, "us", n, false)
		drop := ls.selfNs["unaligned.drop_epoch"]
		put("unaligned.drop_epoch_ms.p50", quantile(drop, 0.5)/1e6, "ms", len(drop), false)
		put("unaligned.drop_epoch_ms.max", maxOf(drop)/1e6, "ms", len(drop), false)
		if ls.rowPairs > 0 {
			put("unaligned.edge_yield", float64(ls.edges)/float64(ls.rowPairs), "ratio", int(ls.rowPairs), false)
		}
		put("unaligned.lambda_ns", ls.lambdaNs, "ns", 1, false)
		put("unaligned.tracker_bytes.peak", float64(ls.trackerMax), "bytes", len(ls.ingestU), false)
		share := sum(ls.selfNs["unaligned.tracker_add"]) / (sum(ls.ingestU) * 1e3)
		put("unaligned.tracker_share_of_ingest", share, "ratio", len(ls.ingestU), false)
	}
	if len(ls.ingestA) > 0 {
		put("center.ingest_us.aligned.p50", quantile(ls.ingestA, 0.5), "us", len(ls.ingestA), false)
		put("center.ingest_us.aligned.p90", quantile(ls.ingestA, 0.9), "us", len(ls.ingestA), false)
		v, n = us("aligned.acc_add", 0.5)
		put("aligned.acc_add_us.p50", v, "us", n, false)
		v, n = us("aligned.detect", 0.5)
		put("aligned.detect_ms.p50", v/1e3, "ms", n, false)
	}
	if q, cnt := histQuantile(scrapes, "dcs_transport_udp_frames_per_datagram", 0.5); cnt > 0 {
		put("transport.udp_frames_per_datagram", q, "count", int(cnt), false)
		lost := 0.0
		for _, m := range scrapes {
			lost += m["dcs_transport_udp_datagrams_lost_total"]
		}
		put("transport.udp_datagrams_lost", lost, "count", int(cnt), false)
	}
	if w.shards > 0 {
		front := scrapes[len(scrapes)-1]
		delivered := front["dcs_transport_frames_in_total"] - front["dcs_shard_reports_total"]
		put("shard.routed_per_digest", front["dcs_shard_routed_total"]/delivered, "ratio", int(delivered), false)
	}

	// What the daemon spends per digest beyond the layers it runs, each
	// timed in isolation: decode, journal (when deployed), routing (when
	// sharded), ingest, and analysis spread over the epoch's digests.
	perDigest := func(name string) float64 { return sum(ls.selfNs[name]) / 1e3 / float64(ls.digests) }
	attributed := perDigest("transport.decode") + perDigest("center.ingest") + perDigest("center.analyze")
	if w.journal {
		attributed += perDigest("journal.append")
	}
	if w.shards > 0 {
		attributed += perDigest("shard.route")
	}
	put("dcsd.unattributed_us_per_digest", cpuUs-attributed, "us", ls.digests, true)
	put("trace.overhead_us_per_digest", ls.overheadNs*float64(ls.spans)/1e3/float64(ls.digests), "us", ls.spans, false)
	return nil
}

// steadiness runs the workload on n consecutive seeds and prints, per
// metric, the median, quartiles (as Python's statistics.quantiles gives
// them), range, and the interquartile spread as a share of the median.
func steadiness(o options, n int) error {
	values := map[string][]float64{}
	var names []string
	for i := 0; i < n; i++ {
		oi := o
		oi.seed = o.seed + uint64(i)
		res, err := run(oi)
		if err != nil {
			return fmt.Errorf("seed %d: %w", oi.seed, err)
		}
		line := fmt.Sprintf("seed %d: correct=%v attempted=%d failed=%d", oi.seed, res.correct, res.attempted, res.failed)
		for _, name := range res.names {
			if res.inJSON == nil || res.inJSON[name] {
				line += fmt.Sprintf(" %s=%.4g", name, res.metrics[name].Value)
			}
		}
		fmt.Println(line)
		if !res.correct || res.failed > 0 {
			for _, l := range res.lines {
				if strings.HasPrefix(l, "gate:") {
					fmt.Println("  ", l)
				}
			}
		}
		for _, name := range res.names {
			if res.inJSON != nil && !res.inJSON[name] {
				continue
			}
			if _, seen := values[name]; !seen {
				names = append(names, name)
			}
			values[name] = append(values[name], res.metrics[name].Value)
		}
	}
	fmt.Printf("%-40s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
	for _, name := range names {
		xs := values[name]
		q1, q2, q3 := quartiles(xs)
		fmt.Printf("%-40s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n", name, q2, q1, q3, minOf(xs), maxOf(xs), (q3-q1)/q2)
	}
	return nil
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method); with fewer than two values all three are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func minOf(xs []float64) float64 {
	m := math.NaN()
	for _, x := range xs {
		if math.IsNaN(m) || x < m {
			m = x
		}
	}
	return m
}
