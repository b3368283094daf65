package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"dcstream/internal/center"
)

// verdict is what the gate compares between dcsd's event and the reference.
type verdict struct {
	routers           int // distinct routers the window held
	degraded          bool
	hasAligned        bool
	alignedFound      bool
	alignedRouters    []int
	hasUnaligned      bool
	unalignedDetected bool
	unalignedRouters  []int
}

func (v verdict) String() string {
	s := fmt.Sprintf("routers=%d degraded=%v", v.routers, v.degraded)
	if v.hasAligned {
		s += fmt.Sprintf(" aligned{found=%v routers=%v}", v.alignedFound, v.alignedRouters)
	}
	if v.hasUnaligned {
		s += fmt.Sprintf(" unaligned{detected=%v routers=%v}", v.unalignedDetected, v.unalignedRouters)
	}
	return s
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func eventVerdict(ev event) verdict {
	v := verdict{routers: ev.Routers, degraded: ev.Degraded || ev.Shed}
	if ev.Aligned != nil {
		v.hasAligned, v.alignedFound, v.alignedRouters = true, ev.Aligned.Found, sortedCopy(ev.Aligned.Routers)
	}
	if ev.Unaligned != nil {
		v.hasUnaligned, v.unalignedDetected, v.unalignedRouters = true, ev.Unaligned.Detected, sortedCopy(ev.Unaligned.Routers)
	}
	return v
}

func reportVerdict(rep center.WindowReport) verdict {
	v := verdict{routers: rep.Routers, degraded: rep.Degraded || rep.Shed}
	if a := rep.Aligned; a != nil {
		v.hasAligned, v.alignedFound, v.alignedRouters = true, a.Detection.Found, sortedCopy(a.RouterIDs)
	}
	if u := rep.Unaligned; u != nil {
		v.hasUnaligned, v.unalignedDetected, v.unalignedRouters = true, u.ER.PatternDetected, sortedCopy(u.Routers)
	}
	return v
}

func (v verdict) equal(o verdict) bool {
	return v.routers == o.routers && v.degraded == o.degraded &&
		v.hasAligned == o.hasAligned && v.alignedFound == o.alignedFound && slices.Equal(v.alignedRouters, o.alignedRouters) &&
		v.hasUnaligned == o.hasUnaligned && v.unalignedDetected == o.unalignedDetected && slices.Equal(v.unalignedRouters, o.unalignedRouters)
}

// refEpoch is one epoch the reference center analyzed.
type refEpoch struct {
	epoch int
	phase phase
	v     verdict
}

// reference feeds the same digests, in the same per-epoch order, to an
// in-process center configured like the daemon and analyzes each epoch as
// its burst completes — the order dcsd's quiescence close gives an
// unloaded fleet.
//
// Without sliding windows epochs are independent, so the epochs are dealt
// round-robin to one reference center per core and run in
// parallel; a sliding span needs its predecessors, so one center runs all.
func reference(w workload, epochs []*sentEpoch) ([]refEpoch, error) {
	lanes := clients
	if w.slide > 1 {
		lanes = 1
	}
	out := make([]refEpoch, len(epochs))
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := center.New(center.Config{WindowSlide: w.slide})
			for i := lane; i < len(epochs); i += lanes {
				se := epochs[i]
				for _, o := range se.msgs {
					c.Ingest(o.m)
				}
				rep, err := c.Analyze(se.epoch)
				if err != nil {
					errs[lane] = fmt.Errorf("reference epoch %d: %w", se.epoch, err)
					return
				}
				out[i] = refEpoch{epoch: se.epoch, phase: se.phase, v: reportVerdict(rep)}
			}
		}(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verdictGate compares every attempted epoch's event with the reference and
// requires planted epochs' aligned verdict to name exactly the carriers.
// Returns failed epochs per phase and one line per failure.
func verdictGate(in *inputs, refs []refEpoch, events *eventLog) (failed [numPhases]int, attempted [numPhases]int, lines []string) {
	for _, r := range refs {
		attempted[r.phase]++
		rec, ok := events.get(r.epoch)
		if !ok {
			failed[r.phase]++
			lines = append(lines, fmt.Sprintf("epoch %d (%s): no event", r.epoch, r.phase))
			continue
		}
		got := eventVerdict(rec.ev)
		switch {
		case got.degraded:
			failed[r.phase]++
			lines = append(lines, fmt.Sprintf("epoch %d (%s): degraded: %v", r.epoch, r.phase, got))
		case !got.equal(r.v):
			failed[r.phase]++
			lines = append(lines, fmt.Sprintf("epoch %d (%s): dcsd %v, reference %v", r.epoch, r.phase, got, r.v))
		case in.planted(r.epoch) && got.hasAligned && !(got.alignedFound && slices.Equal(got.alignedRouters, in.carriers(r.epoch))):
			failed[r.phase]++
			lines = append(lines, fmt.Sprintf("epoch %d (%s): planted on %v, aligned verdict %v", r.epoch, r.phase, in.carriers(r.epoch), got))
		}
	}
	return failed, attempted, lines
}

// unalignedRecall counts planted epochs whose unaligned verdict names at
// least one carrier. It is reported, not gated: at these geometries the
// unaligned detector does not reliably implicate every carrier.
func unalignedRecall(in *inputs, refs []refEpoch) (hit, planted int) {
	for _, r := range refs {
		if !in.planted(r.epoch) || !r.v.hasUnaligned {
			continue
		}
		planted++
		carriers := map[int]bool{}
		for _, c := range in.carriers(r.epoch) {
			carriers[c] = true
		}
		for _, x := range r.v.unalignedRouters {
			if carriers[x] {
				hit++
				break
			}
		}
	}
	return hit, planted
}

// counts are the ledger terms summed over every daemon's /metrics.
type counts struct {
	ingested, replaced, late, duplicate, rejected, shed, misrouted, unknown float64
	tcpFrames, udpFrames, badFrames                                         float64
	udpLost, udpRejected, udpLate                                           float64
	replayed                                                                float64
	routed, sendErrors, reports, synthesized                                float64
}

func sumCounts(scrapes []map[string]float64, front int, sharded bool) counts {
	var c counts
	for i, m := range scrapes {
		c.ingested += m["dcs_center_digests_ingested_total"]
		c.replaced += m["dcs_center_digests_replaced_total"]
		c.late += m["dcs_center_digests_late_total"]
		c.duplicate += m["dcs_center_digests_duplicate_total"]
		c.rejected += m["dcs_center_shed_rejected_total"]
		c.shed += m["dcs_center_shed_digests_total"]
		c.misrouted += m["dcs_center_digests_misrouted_total"]
		c.unknown += m["dcs_center_messages_unknown_total"]
		c.replayed += m["dcs_journal_frames_replayed_total"]
		c.badFrames += m["dcs_transport_frames_bad_total"] + m["dcs_transport_udp_frames_bad_total"]
		if i == front {
			// Only the front daemon's listeners carry generator traffic;
			// the coordinator's TCP listener also takes shard reports.
			c.tcpFrames += m["dcs_transport_frames_in_total"]
			c.udpFrames += m["dcs_transport_udp_frames_in_total"]
			c.udpLost += m["dcs_transport_udp_datagrams_lost_total"]
			c.udpRejected += m["dcs_transport_udp_datagrams_rejected_total"]
			c.udpLate += m["dcs_transport_udp_datagrams_late_total"]
			if sharded {
				c.reports += m["dcs_shard_reports_total"]
				c.routed += m["dcs_shard_routed_total"]
				c.sendErrors += m["dcs_shard_send_errors_total"]
				c.synthesized += m["dcs_shard_synthesized_total"]
			}
		}
	}
	return c
}

// delivered is the generator digests the front daemon's listeners decoded.
func (c counts) delivered() float64 { return c.tcpFrames + c.udpFrames - c.reports }

// accounted is every way a center can dispose of a decoded digest. Under
// the default DupKeepLast a duplicate is counted both duplicate and replaced,
// and a shed digest was first counted ingested, so neither is added again.
func (c counts) accounted() float64 {
	return c.ingested + c.replaced + c.late + c.rejected + c.misrouted + c.unknown
}

func (c counts) sub(o counts) counts {
	return counts{
		ingested: c.ingested - o.ingested, replaced: c.replaced - o.replaced, late: c.late - o.late,
		duplicate: c.duplicate - o.duplicate, rejected: c.rejected - o.rejected, shed: c.shed - o.shed,
		misrouted: c.misrouted - o.misrouted, unknown: c.unknown - o.unknown,
		tcpFrames: c.tcpFrames - o.tcpFrames, udpFrames: c.udpFrames - o.udpFrames, badFrames: c.badFrames - o.badFrames,
		udpLost: c.udpLost - o.udpLost, udpRejected: c.udpRejected - o.udpRejected, udpLate: c.udpLate - o.udpLate,
		replayed: c.replayed - o.replayed, routed: c.routed - o.routed, sendErrors: c.sendErrors - o.sendErrors,
		reports: c.reports - o.reports, synthesized: c.synthesized - o.synthesized,
	}
}

// ledgerGate checks, exactly, that every digest the generator sent and
// every journal frame recovered is accounted for:
//
//	sent = delivered + lost (sender drops + UDP datagrams lost in flight)
//	delivered + replayed = ingested + replaced + late + rejected + misrouted + unknown
//
// summed over all daemons, with routed = delivered on a coordinator. A lost
// count is allowed only when the daemon saw a sequence gap.
func ledgerGate(c counts, sent, resends, stale, senderDropped int64, journalFrames int, sharded bool) []string {
	var bad []string
	lost := float64(sent) - c.delivered() - float64(senderDropped)
	if lost < 0 || (lost > 0 && c.udpLost == 0) || (lost == 0 && c.udpLost > 0) {
		bad = append(bad, fmt.Sprintf("sent %d = delivered %.0f + sender-dropped %d + lost %.0f, but dcsd counted %.0f datagrams lost", sent, c.delivered(), senderDropped, lost, c.udpLost))
	}
	if c.replayed != float64(journalFrames) {
		bad = append(bad, fmt.Sprintf("journal replayed %.0f frames, %d were written", c.replayed, journalFrames))
	}
	if sharded {
		if c.routed != c.delivered() || c.sendErrors != 0 {
			bad = append(bad, fmt.Sprintf("coordinator routed %.0f of %.0f delivered digests (%.0f send errors)", c.routed, c.delivered(), c.sendErrors))
		}
	}
	if got, want := c.accounted(), c.delivered()+c.replayed; got != want {
		bad = append(bad, fmt.Sprintf("centers accounted %.0f digests (ingested %.0f replaced %.0f late %.0f rejected %.0f misrouted %.0f unknown %.0f), delivered+replayed is %.0f",
			got, c.ingested, c.replaced, c.late, c.rejected, c.misrouted, c.unknown, want))
	}
	if c.duplicate != c.replaced+c.rejected && c.rejected == 0 {
		bad = append(bad, fmt.Sprintf("duplicates %.0f != replaced %.0f", c.duplicate, c.replaced))
	}
	if c.replaced != float64(resends) {
		bad = append(bad, fmt.Sprintf("replaced %.0f digests, %d resends were sent", c.replaced, resends))
	}
	if c.late < float64(stale) {
		bad = append(bad, fmt.Sprintf("late %.0f digests, but %d stale ones were sent", c.late, stale))
	}
	if c.badFrames != 0 || c.udpRejected != 0 {
		bad = append(bad, fmt.Sprintf("%.0f bad frames, %.0f rejected datagrams", c.badFrames, c.udpRejected))
	}
	return bad
}
