package main

import (
	"fmt"
	"math"
	"time"

	"dcstream/internal/journal"
	"dcstream/internal/transport"
)

// maxDatagram is the datagram budget dcsnode uses on loopback.
const maxDatagram = 65507

// sender holds the generator's client connections (or UDP sockets).
type sender struct {
	udp []*transport.BatchingUDPClient
	tcp []*transport.ReconnectingClient
}

func newSender(w workload, addr string) (*sender, error) {
	s := &sender{}
	for c := 0; c < clients; c++ {
		if w.transport == "udp" {
			u, err := transport.DialUDP(addr, transport.UDPClientConfig{
				SenderID: uint32(c + 1), MaxDatagramBytes: maxDatagram, FlushInterval: -1,
			})
			if err != nil {
				s.close()
				return nil, err
			}
			s.udp = append(s.udp, u)
		} else {
			s.tcp = append(s.tcp, transport.NewReconnectingClient(addr, transport.ReconnectConfig{Buffer: 1 << 16}))
		}
	}
	return s, nil
}

// burst sends one epoch's messages, in order, on one client: epoch e rides
// client e%clients. One connection per burst is what makes dcsd's ingest
// order the burst order (two TCP connections would race), and the
// unaligned verdict depends on that order. A UDP client flushes at the end
// of the burst.
func (s *sender) burst(e int, msgs []outMsg) error {
	c := e % clients
	for _, o := range msgs {
		var err error
		if s.udp != nil {
			err = s.udp[c].Send(o.m)
		} else {
			err = s.tcp[c].Send(o.m)
		}
		if err != nil {
			return err
		}
	}
	if s.udp != nil {
		return s.udp[c].Flush()
	}
	return nil
}

// dropped counts messages the clients accepted but could not hand to the
// kernel (UDP write failures, a full reconnect buffer).
func (s *sender) dropped() int64 {
	var n int64
	for _, u := range s.udp {
		n += u.Stats().DroppedSends.Load()
	}
	for _, t := range s.tcp {
		n += t.Stats().DroppedSends.Load()
	}
	return n
}

func (s *sender) close() {
	for _, u := range s.udp {
		_ = u.Close() // fire-and-forget sockets: nothing left to report
	}
	for _, t := range s.tcp {
		t.Flush(10 * time.Second)
		_, _ = t.Close() // undelivered digests show up in the ledger gate
	}
}

// phase names the parts of a run.
type phase int

const (
	phaseRecovered phase = iota // journal epochs replayed at set-up
	phaseWarmup
	phaseClosed
	phaseLo
	phaseHi
	numPhases
)

func (p phase) String() string {
	return [...]string{"recovered", "warmup", "closed", "lo", "hi"}[p]
}

// sentEpoch records one epoch the generator sent.
type sentEpoch struct {
	epoch int
	phase phase
	msgs  []outMsg // burst order
	due   time.Time
	start time.Time // when the burst began
}

// generator runs a workload's phases against a live deployment.
type generator struct {
	w     workload
	in    *inputs
	dep   *deployment
	s     *sender
	next  int // next epoch number
	first int // first live epoch
	sent  []*sentEpoch
}

func (d *generator) send(p phase, due time.Time) (*sentEpoch, error) {
	e := d.next
	d.next++
	se := &sentEpoch{epoch: e, phase: p, msgs: d.in.epoch(e, d.first), due: due}
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	se.start = time.Now()
	if err := d.s.burst(e, se.msgs); err != nil {
		return nil, fmt.Errorf("epoch %d: %w", e, err)
	}
	d.sent = append(d.sent, se)
	return se, nil
}

// eventTimeout bounds the wait for any one verdict.
const eventTimeout = 30 * time.Second

// closedLoop sends one epoch at a time, each only after the previous
// epoch's event appeared, until the phase's time is up. Returns the epochs
// sent and the time dcsd had an epoch in flight: from each send to its
// event, summed.
//
// dcsd closes and reports epochs only on its tick, so a loop that sends the
// moment a verdict appears locks onto the tick and every cycle lasts a whole
// number of ticks. A think time of a golden-ratio fraction of the tick
// before each send spreads the sends over every tick phase; it is not part
// of the busy time.
func (d *generator) closedLoop(p phase, dur time.Duration, minEpochs int) ([]*sentEpoch, time.Duration, error) {
	start := time.Now()
	var out []*sentEpoch
	var busy time.Duration
	for i := 0; len(out) < minEpochs || time.Since(start) < dur; i++ {
		_, frac := math.Modf(float64(i) * 0.6180339887)
		se, err := d.send(p, time.Now().Add(time.Duration(frac*float64(tick))))
		if err != nil {
			return nil, 0, err
		}
		out = append(out, se)
		if !d.dep.events.wait(time.Now().Add(eventTimeout), se.epoch) {
			return nil, 0, fmt.Errorf("%s: no event for epoch %d within %v", p, se.epoch, eventTimeout)
		}
		r, _ := d.dep.events.get(se.epoch)
		busy += r.at.Sub(se.start)
	}
	return out, busy, nil
}

// openLoop sends epochs on a fixed schedule regardless of verdicts, then
// waits for every verdict. dcsd analyzes only on its window tick, so each
// burst is also shifted by a golden-ratio fraction of the tick: the bursts
// sample every tick phase evenly within one run, rather than all landing on
// whatever phase the run happened to start at.
func (d *generator) openLoop(p phase, dur time.Duration, rate float64) ([]*sentEpoch, error) {
	period := time.Duration(float64(time.Second) / rate)
	n := int(dur / period)
	if n < 2 {
		n = 2
	}
	t0 := time.Now().Add(period)
	var out []*sentEpoch
	for i := 0; i < n; i++ {
		_, frac := math.Modf(float64(i) * 0.6180339887)
		due := t0.Add(time.Duration(i)*period + time.Duration(frac*float64(tick)))
		se, err := d.send(p, due)
		if err != nil {
			return nil, err
		}
		out = append(out, se)
	}
	es := make([]int, len(out))
	for i, se := range out {
		es[i] = se.epoch
	}
	if !d.dep.events.wait(time.Now().Add(eventTimeout), es...) {
		return nil, fmt.Errorf("%s: verdicts missing %v after %v", p, missingEvents(d.dep.events, es), eventTimeout)
	}
	return out, nil
}

func missingEvents(l *eventLog, es []int) []int {
	var out []int
	for _, e := range es {
		if _, ok := l.get(e); !ok {
			out = append(out, e)
		}
	}
	return out
}

// appendJournal writes messages into a journal directory, synced once.
func appendJournal(dir string, msgs []transport.Message) error {
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	for _, m := range msgs {
		if err := j.Append(m); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Sync(); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}
