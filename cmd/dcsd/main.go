// Command dcsd runs the DCS analysis center as a TCP daemon: it accepts
// digests from dcsnode collectors, files them by the epoch stamped on each
// digest, and analyzes every epoch exactly once — when a newer epoch shows
// the collectors have moved on, or when the epoch has been idle for a full
// window tick.
//
//	dcsd -listen 127.0.0.1:7460 -window 2s -stats
//
// The daemon infers the case from the digest types it receives; mixing both
// in one epoch is allowed and each case is analyzed independently. -stats
// logs the transport and ingest counters (frames, bad frames, late/dup/
// dropped digests, reaped connections) every window tick.
//
// With -journal <dir> every ingested digest is appended to a crash-safe
// write-ahead log before analysis; after a crash (kill -9, OOM, panic) a
// restart with the same -journal replays every un-analyzed epoch into the
// center, so buffered windows survive the process. Epochs are marked in the
// journal as they are analyzed and their segments deleted once fully
// covered, bounding disk use to the in-flight windows.
//
// With -http <addr> the daemon serves /metrics (Prometheus text exposition
// of every transport/center/journal counter), /healthz (JSON quorum state
// per buffered epoch) and /debug/pprof. With -events <path> it appends one
// JSON object per analyzed epoch ("-" writes to stdout) — a machine-readable
// companion to the human-oriented log lines.
//
// With -min-routers N the quiescence close is quorum-gated: an epoch that
// fewer than N routers have reported into is held open while known-live
// routers are still missing, up to -max-wait epochs (and at most -max-wait
// extra window ticks when the fleet is not advancing). An epoch analyzed
// below quorum is logged with a DEGRADED marker naming the missing routers,
// and the unaligned component threshold is rescaled for the observed router
// count.
//
// Overload resilience: -mem-budget caps the bytes buffered across epoch
// windows, with -shed-policy picking the sacrifice ("oldest" sheds whole old
// epochs as explicit tombstones, "reject" refuses new digests); -rate-limit
// arms a per-sender admission gate on both listeners that quarantines
// flooders and garbage sprayers (auto-parole after a cool-down). Journal
// write failures (disk full, I/O errors) degrade the journal instead of
// killing the daemon: ingest continues without crash durability, the gap is
// counted, and the journal re-arms itself when the disk recovers. Every
// degradation is visible in /healthz, /metrics, the -events stream, and the
// log.
//
// Streaming analysis: by default (-analysis incremental) the center maintains
// each window's analysis state as digests arrive, so closing an epoch is a
// cheap finalize rather than a full rebuild; -analysis batch restores the
// reference rebuild-at-analyze behaviour (reports are bit-identical either
// way). With -slide W (W >= 2) each analysis covers an overlapping span of W
// consecutive epochs, so common content split across an epoch boundary still
// meets itself inside some span; an epoch's buffered state (and its journal
// frames) is retired only once it has left every future span. Every -events
// line carries the span (span_start/span_epochs/retired_epochs) and the
// running p50/p99 of the ingest-to-analyze and finalize latency histograms.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dcstream/internal/center"
	"dcstream/internal/journal"
	"dcstream/internal/metrics"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

func report(rep center.WindowReport) {
	if rep.Shed {
		log.Printf("epoch %d SHED: %d digests from %d routers dropped whole under the memory budget; no analysis ran",
			rep.Epoch, rep.ShedDigests, rep.Routers)
		return
	}
	if rep.RejectedDigests > 0 {
		log.Printf("epoch %d DEGRADED: %d digests refused at admission under the memory budget", rep.Epoch, rep.RejectedDigests)
	}
	if rep.Degraded && len(rep.MissingRouters) > 0 {
		log.Printf("epoch %d DEGRADED: analyzed below quorum, missing routers %v", rep.Epoch, rep.MissingRouters)
	}
	if rep.Aligned != nil {
		a := rep.Aligned
		if a.Detection.Found {
			log.Printf("epoch %d ALIGNED PATTERN: %d routers share %d common packets (core %d): routers %v",
				rep.Epoch, len(a.RouterIDs), len(a.Detection.Cols), len(a.Detection.CoreCols), a.RouterIDs)
		} else {
			log.Printf("epoch %d aligned: no pattern across %d routers", rep.Epoch, a.Routers)
		}
	}
	if rep.Unaligned != nil {
		u := rep.Unaligned
		if u.ER.PatternDetected {
			log.Printf("epoch %d UNALIGNED PATTERN: largest component %d >= %d over %d vertices; %d vertices at routers %v implicated",
				rep.Epoch, u.ER.LargestComponent, u.ER.Threshold, u.Vertices, len(u.PatternVertices), u.Routers)
		} else {
			log.Printf("epoch %d unaligned: no pattern (largest component %d < %d over %d vertices)",
				rep.Epoch, u.ER.LargestComponent, u.ER.Threshold, u.Vertices)
		}
	}
	if rep.Aligned == nil && rep.Unaligned == nil {
		log.Printf("epoch %d: fewer than two routers reported, nothing to correlate", rep.Epoch)
	}
}

// shardPush is the shard-mode report uplink: every report the shard produces
// is also encoded as an envelope — report plus the shard's own health facts —
// and pushed to the coordinator over a reconnecting client, so a coordinator
// restart loses nothing the buffer can hold.
type shardPush struct {
	client *transport.ReconnectingClient
	shard  int
	c      *center.Center
	jr     *journal.Journal
}

func (p *shardPush) emit(rep center.WindowReport) {
	held := 0
	for _, e := range p.c.Epochs() {
		if p.c.Quorum(e).Hold {
			held++
		}
	}
	frame, err := shard.EncodeReport(shard.Envelope{
		Shard:           p.shard,
		JournalDegraded: p.jr != nil && p.jr.Degraded(),
		HeldEpochs:      held,
		Report:          rep,
	})
	if err != nil {
		log.Printf("shard push: epoch %d: %v", rep.Epoch, err)
		return
	}
	if err := p.client.Send(frame); err != nil {
		// The client buffers across outages; an error here means the buffer
		// is gone too. The coordinator's expiry will degrade the span.
		log.Printf("shard push: epoch %d: %v", rep.Epoch, err)
	}
}

// finish reports one analyzed window (to the log and, when -events is set,
// the event log), pushes it to the coordinator in shard mode, and, when
// journaling, marks its epoch analyzed so the journal can rotate and purge
// its frames.
func finish(jr *journal.Journal, ev *eventLog, push *shardPush, rep center.WindowReport, wall time.Duration) {
	report(rep)
	if ev != nil {
		if err := ev.emit(rep, wall); err != nil {
			log.Printf("events: epoch %d: %v", rep.Epoch, err)
		}
	}
	if push != nil {
		push.emit(rep)
	}
	if jr != nil {
		// Only retired epochs may forget their journal frames: under -slide a
		// report's own epoch stays buffered for the next overlapping span, and
		// purging it would lose those digests across a crash.
		retired := rep.RetiredEpochs
		if len(retired) == 0 {
			retired = []int{rep.Epoch}
		}
		for _, e := range retired {
			if err := jr.EpochAnalyzed(e); err != nil {
				log.Printf("journal: marking epoch %d analyzed: %v", e, err)
			}
		}
	}
}

func analyzeEpoch(c *center.Center, jr *journal.Journal, ev *eventLog, push *shardPush, epoch int) {
	start := time.Now()
	rep, err := c.Analyze(epoch)
	if errors.Is(err, center.ErrNotOwned) || errors.Is(err, center.ErrSpanClosed) {
		// A context epoch whose span belongs to another shard, or (under
		// -slide) whose span a newer one already closed: its digests served
		// their purpose in the spans that were emitted.
		return
	}
	if err != nil {
		log.Printf("epoch %d analysis: %v", epoch, err)
		return
	}
	finish(jr, ev, push, rep, time.Since(start))
}

// drainShed forwards the tombstone reports of epochs shed under the memory
// budget: logged, emitted as -events records, and marked analyzed in the
// journal so their frames are purged rather than replayed into a window that
// no longer exists.
func drainShed(c *center.Center, jr *journal.Journal, ev *eventLog, push *shardPush) {
	for _, rep := range c.TakeShedReports() {
		finish(jr, ev, push, rep, 0)
	}
}

// drainComplete analyzes every epoch already superseded by a newer one (and
// not held open by the quorum gate).
func drainComplete(c *center.Center, jr *journal.Journal, ev *eventLog, push *shardPush) {
	for {
		start := time.Now()
		rep, err := c.AnalyzeLatestComplete()
		if err != nil {
			if !errors.Is(err, center.ErrNoCompleteEpoch) {
				log.Printf("analysis: %v", err)
			}
			return
		}
		finish(jr, ev, push, rep, time.Since(start))
	}
}

// quiescence is the window-tick close policy. Epochs superseded by a newer
// one are done by definition; the newest epoch closes once it sat out a
// full tick with no new digests, preserving the old timer-window behaviour
// for single-epoch deployments. The quorum gate can veto a quiescence close
// for up to maxWait ticks — a fleet that stopped advancing epochs would
// otherwise never satisfy the gate's own epoch-based bound.
type quiescence struct {
	maxWait   int
	prev      map[int]int // digest count per epoch at the previous tick
	heldTicks map[int]int
}

func newQuiescence(maxWait int) *quiescence {
	return &quiescence{maxWait: maxWait, prev: map[int]int{}, heldTicks: map[int]int{}}
}

// tick runs one window tick: shed tombstones, superseded epochs, then every
// epoch whose digest count did not move since the previous tick.
func (q *quiescence) tick(c *center.Center, jr *journal.Journal, ev *eventLog, push *shardPush) {
	drainShed(c, jr, ev, push)
	drainComplete(c, jr, ev, push)
	counts := c.EpochDigests()
	// Ascending order: closing a span retires the epochs at and below its
	// start, so visiting a newer epoch first would leave an older one's
	// count stale and its Analyze failing with ErrNoWindow.
	epochs := make([]int, 0, len(counts))
	for e := range counts {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	for _, e := range epochs {
		n := counts[e]
		if q.prev[e] != n {
			continue
		}
		if qs := c.Quorum(e); qs.Hold {
			q.heldTicks[e]++
			if q.heldTicks[e] <= q.maxWait {
				log.Printf("epoch %d held below quorum (%d reported, missing routers %v), tick %d/%d",
					e, qs.Reported, qs.Missing, q.heldTicks[e], q.maxWait)
				continue
			}
			log.Printf("epoch %d exhausted quorum wait; analyzing degraded", e)
		}
		analyzeEpoch(c, jr, ev, push, e)
		delete(counts, e)
		delete(q.heldTicks, e)
	}
	q.prev = counts
}

func logStats(srv *transport.Server, usrv *transport.UDPServer, c *center.Center) {
	t, s := srv.Stats().Snapshot(), c.Stats().Snapshot()
	log.Printf("stats: frames in=%d bad=%d; conns accepted=%d reaped=%d; quarantined senders=%d drops=%d; digests ingested=%d late=%d dup=%d dropped=%d shed=%d rejected=%d unknown=%d; epochs analyzed=%d degraded=%d evicted=%d shed=%d",
		t.FramesIn, t.BadFrames, t.ConnsAccepted, t.ConnsReaped,
		t.QuarantinedSenders, t.QuarantineDrops,
		s.DigestsIngested, s.LateDigests, s.DuplicateDigests, s.DroppedDigests, s.ShedDigests, s.RejectedDigests, s.UnknownMessages,
		s.EpochsAnalyzed, s.DegradedEpochs, s.EpochsEvicted, s.ShedEpochs)
	if usrv != nil {
		u := usrv.Stats().Snapshot()
		log.Printf("stats: udp datagrams in=%d rejected=%d lost=%d late=%d; frames in=%d bad=%d",
			u.DatagramsIn, u.DatagramsRejected, u.DatagramsLost, u.DatagramsLate,
			u.FramesIn, u.BadFrames)
	}
}

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7460", "address to listen on")
		udpListen   = flag.String("udp", "", "also accept batched digest datagrams on this UDP address (empty = off)")
		window      = flag.Duration("window", 2*time.Second, "analysis window tick")
		idleConn    = flag.Duration("conn-timeout", 2*time.Minute, "reap collector connections idle this long")
		maxEpochs   = flag.Int("max-epochs", 4, "epochs buffered at once (reorder window)")
		subset      = flag.Int("subset", 512, "aligned detector subset size n'")
		threshold   = flag.Int("er-threshold", 12, "unaligned ER component threshold")
		beta        = flag.Int("beta", 8, "unaligned core size")
		dExp        = flag.Int("d", 2, "unaligned expansion degree threshold")
		workers     = flag.Int("workers", 0, "analysis goroutines (0 = GOMAXPROCS, negative = serial)")
		once        = flag.Bool("once", false, "analyze one window tick and exit (for scripting)")
		stats       = flag.Bool("stats", false, "log transport/ingest counters every window tick")
		journalDir  = flag.String("journal", "", "directory for the crash-safe digest journal (empty = no journal)")
		journalSync = flag.Bool("journal-sync", true, "fsync the journal after every append (crash-safe but slower)")
		minRouters  = flag.Int("min-routers", 0, "quorum: hold an epoch open until this many routers reported (0 = off)")
		maxWait     = flag.Int("max-wait", 2, "epochs (and idle ticks) a below-quorum window may be held open")
		httpAddr    = flag.String("http", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
		eventsPath  = flag.String("events", "", `append one JSON event per analyzed epoch to this file ("-" = stdout)`)
		slide       = flag.Int("slide", 1, "sliding-window width W: each analysis covers a span of W consecutive epochs, overlapping the previous span by W-1 (1 = classic per-epoch)")
		analysis    = flag.String("analysis", "incremental", `analysis input maintenance: "incremental" updates state O(digest) at ingest so finalize is cheap; "batch" rebuilds from buffered digests at analyze time (reference)`)
		memBudget   = flag.Int64("mem-budget", 0, "byte budget across buffered epoch windows (0 = unlimited)")
		shedPolicy  = flag.String("shed-policy", "oldest", `sacrifice when -mem-budget is exhausted: "oldest" sheds whole old epochs, "reject" refuses new digests`)
		rateLimit   = flag.Float64("rate-limit", 0, "per-sender admission rate, frames (TCP) or datagrams (UDP) per second; offenders are quarantined (0 = off)")
		shards      = flag.Int("shards", 1, "total shard count N of a sharded deployment; the span-to-shard partition is derived from this and -slide")
		shardOf     = flag.Int("shard-of", -1, "run as shard I (0-based) of -shards: ingest only owned epochs, report only owned spans, and push report envelopes to -coordinator (-1 = un-sharded)")
		coordinator = flag.String("coordinator", "", "with -shard-of: coordinator address to push report envelopes to; without: run as the coordinator, scattering over this comma-separated list of shard ingest addresses")
	)
	flag.Parse()

	var shedding center.ShedPolicy
	switch *shedPolicy {
	case "oldest":
		shedding = center.ShedOldest
	case "reject":
		shedding = center.RejectNew
	default:
		log.Fatalf(`-shed-policy %q: want "oldest" or "reject"`, *shedPolicy)
	}
	var analysisMode center.AnalysisMode
	switch *analysis {
	case "incremental":
		analysisMode = center.AnalysisIncremental
	case "batch":
		analysisMode = center.AnalysisBatch
	default:
		log.Fatalf(`-analysis %q: want "incremental" or "batch"`, *analysis)
	}
	var gate transport.GateConfig
	if *rateLimit > 0 {
		gate = transport.GateConfig{Rate: *rateLimit, MaxStrikes: 8, Cooldown: 30 * time.Second}
	}

	if *coordinator != "" && *shardOf < 0 {
		// Coordinator mode: no center of its own — scatter, gather, merge.
		runCoordinator(strings.Split(*coordinator, ","), coordinatorConfig{
			listen:    *listen,
			udpListen: *udpListen,
			window:    *window,
			idleConn:  *idleConn,
			gate:      gate,
			shards:    *shards,
			slide:     *slide,
			maxWait:   *maxWait,
			httpAddr:  *httpAddr,
			events:    *eventsPath,
			logStats:  *stats,
			once:      *once,
		})
		return
	}
	var ownsEpoch, ownsSpan func(int) bool
	if *shardOf >= 0 {
		if *shardOf >= *shards {
			log.Fatalf("-shard-of %d out of range for -shards %d", *shardOf, *shards)
		}
		// A 1-shard deployment derives always-true predicates and behaves
		// bit-identically to a plain un-sharded dcsd.
		part := shard.Partition{Shards: *shards, Slide: *slide}
		ownsEpoch, ownsSpan = part.OwnsEpoch(*shardOf), part.OwnsSpan(*shardOf)
	}

	c := center.New(center.Config{
		SubsetSize:         *subset,
		ComponentThreshold: *threshold,
		Beta:               *beta,
		D:                  *dExp,
		Parallelism:        *workers,
		Analysis:           analysisMode,
		WindowSlide:        *slide,
		MaxEpochs:          *maxEpochs,
		MinRouters:         *minRouters,
		MaxWait:            *maxWait,
		MemoryBudgetBytes:  *memBudget,
		Shedding:           shedding,
		OwnsEpoch:          ownsEpoch,
		OwnsSpan:           ownsSpan,
	})

	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)

	var ev *eventLog
	if *eventsPath != "" {
		var err error
		ev, err = openEventLog(*eventsPath)
		if err != nil {
			log.Fatalf("events: %v", err)
		}
		ev.attachStats(c.Stats())
		defer func() {
			if err := ev.Close(); err != nil {
				log.Printf("events: close: %v", err)
			}
		}()
	}

	var jr *journal.Journal
	if *journalDir != "" {
		jdir := *journalDir
		if *shardOf >= 0 {
			// Shards never share a write-ahead log: each gets its own
			// directory so restarts, replays, and purges stay independent.
			jdir = filepath.Join(jdir, fmt.Sprintf("shard-%d", *shardOf))
		}
		var err error
		jr, err = journal.Open(jdir, journal.Options{SyncEveryAppend: *journalSync})
		if err != nil {
			log.Fatalf("journal: %v", err)
		}
		defer jr.Close()
		// Recover before listening: replayed digests must not interleave
		// with live ones from collectors that reconnect immediately.
		if err := jr.Replay(func(m transport.Message) error {
			c.Ingest(m)
			return nil
		}); err != nil {
			log.Fatalf("journal replay: %v", err)
		}
		if s := jr.Stats(); s.FramesReplayed > 0 || s.TailsTruncated > 0 {
			log.Printf("journal: recovered %d digests (%d already-analyzed skipped, %d torn tails truncated) from %s",
				s.FramesReplayed, s.FramesSkipped, s.TailsTruncated, jdir)
		}
		jr.RegisterMetrics(reg)
	}

	var push *shardPush
	if *shardOf >= 0 && *coordinator != "" {
		pc := transport.NewReconnectingClient(*coordinator, transport.ReconnectConfig{})
		defer func() {
			pc.Flush(2 * time.Second)
			if abandoned, err := pc.Close(); err != nil {
				log.Printf("coordinator push close: %v (%d reports abandoned)", err, abandoned)
			} else if abandoned > 0 {
				log.Printf("coordinator push close: %d reports abandoned in the reconnect buffer", abandoned)
			}
		}()
		push = &shardPush{client: pc, shard: *shardOf, c: c, jr: jr}
		log.Printf("dcsd running as shard %d of %d, reporting to coordinator %s", *shardOf, *shards, *coordinator)
	} else if *shardOf >= 0 {
		log.Printf("dcsd running as shard %d of %d (no -coordinator: reports stay local)", *shardOf, *shards)
	}

	// One ingest handler shared by both listeners: journal first, then the
	// in-memory window, then a per-digest log line. Journal degradation is
	// logged on the transition, not per digest — a full disk under a digest
	// flood must not also flood the log.
	var jrDegraded atomic.Bool
	handler := func(m transport.Message, from net.Addr) {
		if jr != nil {
			if err := jr.Append(m); err != nil {
				// The digest still reaches the in-memory window; only its
				// crash durability is lost.
				if errors.Is(err, journal.ErrDegraded) {
					if jrDegraded.CompareAndSwap(false, true) {
						log.Printf("journal DEGRADED: %v; ingest continues without crash durability", err)
					}
				} else {
					log.Printf("journal append: %v", err)
				}
			} else if jrDegraded.CompareAndSwap(true, false) {
				log.Printf("journal re-armed: appends durable again (%d digests unjournaled while degraded)",
					jr.Stats().UnjournaledFrames)
			}
		}
		c.Ingest(m)
		switch d := m.(type) {
		case transport.AlignedDigest:
			log.Printf("aligned digest from router %d (%s), epoch %d, %d bits", d.RouterID, from, d.Epoch, d.Bitmap.Len())
		case transport.UnalignedDigest:
			log.Printf("unaligned digest from router %d (%s), epoch %d", d.Digest.RouterID, from, d.Epoch)
		}
	}

	srv, err := transport.ServeConfig(*listen, handler, transport.ServerConfig{ReadTimeout: *idleConn, Gate: gate})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	srv.Stats().Register(reg, "")
	log.Printf("dcsd analysis center listening on %s (window %v)", srv.Addr(), *window)
	fmt.Println(srv.Addr()) // machine-readable line for scripts

	var usrv *transport.UDPServer
	if *udpListen != "" {
		usrv, err = transport.ServeUDPConfig(*udpListen, handler, transport.UDPServerConfig{Gate: gate})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := usrv.Close(); err != nil {
				log.Printf("udp close: %v", err)
			}
		}()
		usrv.Stats().Register(reg, "dcs_transport_udp")
		log.Printf("dcsd udp ingest on %s (batched datagrams, loss-tolerant)", usrv.Addr())
		fmt.Println(usrv.Addr()) // machine-readable line for scripts
	}

	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("http: %v", err)
		}
		hsrv := &http.Server{Handler: newHTTPHandler(reg, c, httpDeps{jr: jr, tcp: srv, udp: usrv})}
		go func() {
			if err := hsrv.Serve(hln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http: %v", err)
			}
		}()
		defer hsrv.Close()
		log.Printf("dcsd http endpoints on %s (/metrics /healthz /debug/pprof)", hln.Addr())
	}

	drainAll := func() {
		drainShed(c, jr, ev, push)
		drainComplete(c, jr, ev, push)
		for _, e := range c.Epochs() {
			analyzeEpoch(c, jr, ev, push, e)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(*window)
	defer ticker.Stop()
	q := newQuiescence(*maxWait)
	for {
		select {
		case <-ticker.C:
			q.tick(c, jr, ev, push)
			if *stats {
				logStats(srv, usrv, c)
			}
			if *once {
				drainAll()
				return
			}
		case s := <-sig:
			log.Printf("signal %v: analyzing remaining epochs and shutting down", s)
			drainAll()
			if *stats {
				logStats(srv, usrv, c)
			}
			return
		}
	}
}
