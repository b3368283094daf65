package main

import (
	"math/rand"
	"sync"

	"dcstream/internal/aligned"
	"dcstream/internal/bitvec"
	"dcstream/internal/packet"
	"dcstream/internal/stats"
	"dcstream/internal/trafficgen"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

const segmentSize = 536

// msgKind tags why a message is in an epoch's burst.
type msgKind int

const (
	kindOriginal msgKind = iota
	kindResend           // same router and epoch, other content: DupKeepLast retracts the original
	kindStale            // an epoch below the retired floor: late by construction
)

// outMsg is one digest the generator sends.
type outMsg struct {
	m    transport.Message
	kind msgKind
}

// inputs holds everything seeded: per-router background digests built the
// way dcsnode builds them (trafficgen background through the collectors),
// per-carrier planted-content digests, and the seed that picks which routers
// carry content in which epoch. Building an epoch from them is pointer work
// plus one bitmap OR per carrier, so generation stays off the measured time.
type inputs struct {
	w    workload
	seed uint64
	// [router][pool index]
	alignedPool   [][]*bitvec.Vector
	unalignedPool [][]*unaligned.Digest
	// [router][variant]: the planted content alone, through the same
	// collector configuration as the router's background. A collector's
	// digest over a packet union is the OR of its digests over the parts.
	alignedPlant   [][]*bitvec.Vector
	unalignedPlant [][]*unaligned.Digest
}

const plantVariants = 2

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func subSeed(seed uint64, parts ...uint64) uint64 {
	s := mix64(seed + 0x9e3779b97f4a7c15)
	for _, p := range parts {
		s = mix64(s ^ (p + 0x9e3779b97f4a7c15))
	}
	return s
}

// newInputs builds the seeded pools, two routers at a time.
func newInputs(w workload, seed uint64) (*inputs, error) {
	in := &inputs{
		w:              w,
		seed:           seed,
		alignedPool:    make([][]*bitvec.Vector, w.routers),
		unalignedPool:  make([][]*unaligned.Digest, w.routers),
		alignedPlant:   make([][]*bitvec.Vector, w.routers),
		unalignedPlant: make([][]*unaligned.Digest, w.routers),
	}
	// The hash seed is a deployment constant, dcsnode's default: it fixes
	// which bits every packet sets for the whole fleet, so drawing it per
	// run would make each run a different deployment.
	const hashSeed = 1
	content := trafficgen.NewContent(stats.NewRand(subSeed(seed, 2)), w.contentPackets, segmentSize)
	prefix := make([]byte, segmentSize)
	stats.NewRand(subSeed(seed, 3)).Read(prefix)

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for worker := 0; worker < clients; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := worker; r < w.routers; r += clients {
				if err := in.buildRouter(r, hashSeed, content, prefix); err != nil {
					errs[worker] = err
					return
				}
			}
		}(worker)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *inputs) buildRouter(r int, hashSeed uint64, content trafficgen.Content, prefix []byte) error {
	w := in.w
	rng := stats.NewRand(subSeed(in.seed, 4, uint64(r)))
	// A router's offsets are its own, fixed across runs; dcsnode derives
	// them from the router id the same way.
	offsetSeed := (0xABCD ^ uint64(r)*0x9e3779b97f4a7c15) ^ 0x0ff5e7
	newAligned := func() (*aligned.Collector, error) {
		return aligned.NewCollector(aligned.CollectorConfig{Bits: w.alignedBits, HashSeed: hashSeed})
	}
	newUnaligned := func() (*unaligned.Collector, error) {
		return unaligned.NewCollector(unaligned.CollectorConfig{
			Groups: w.groups, ArraysPerGroup: w.arrays, ArrayBits: w.arrayBits,
			SegmentSize: segmentSize, HashSeed: hashSeed, MinPayload: 40, OffsetSeed: offsetSeed,
		})
	}
	for p := 0; p < w.pool; p++ {
		bg, err := trafficgen.Background(rng, trafficgen.BackgroundConfig{Packets: w.background, SegmentSize: segmentSize})
		if err != nil {
			return err
		}
		if w.alignedBits > 0 {
			col, err := newAligned()
			if err != nil {
				return err
			}
			for _, pk := range bg {
				col.Update(pk)
			}
			in.alignedPool[r] = append(in.alignedPool[r], col.Digest())
		}
		if w.groups > 0 {
			col, err := newUnaligned()
			if err != nil {
				return err
			}
			for _, pk := range bg {
				col.Update(pk)
			}
			in.unalignedPool[r] = append(in.unalignedPool[r], col.Digest(r))
		}
	}
	for v := 0; v < plantVariants; v++ {
		if w.alignedBits > 0 {
			col, err := newAligned()
			if err != nil {
				return err
			}
			for _, pk := range content.PlantAligned(packet.FlowLabel(1<<40|uint64(r)), segmentSize) {
				col.Update(pk)
			}
			in.alignedPlant[r] = append(in.alignedPlant[r], col.Digest())
		}
		if w.groups > 0 {
			col, err := newUnaligned()
			if err != nil {
				return err
			}
			flow := packet.FlowLabel(1<<50 | uint64(r)<<8 | uint64(v))
			for _, pk := range packet.Instance(flow, content.Data, prefix, rng.Intn(segmentSize), segmentSize) {
				col.Update(pk)
			}
			in.unalignedPlant[r] = append(in.unalignedPlant[r], col.Digest(r))
		}
	}
	return nil
}

// planted reports whether epoch e carries content.
func (in *inputs) planted(e int) bool { return e%in.w.plantEvery == 0 }

// carriers returns the routers carrying content in epoch e (sorted), or nil.
func (in *inputs) carriers(e int) []int {
	if !in.planted(e) {
		return nil
	}
	rng := stats.NewRand(subSeed(in.seed, 6, uint64(e)))
	perm := rng.Perm(in.w.routers)[:in.w.routers/in.w.carrierShare]
	out := make([]int, in.w.routers)
	for _, r := range perm {
		out[r] = 1
	}
	ids := make([]int, 0, len(perm))
	for r, c := range out {
		if c == 1 {
			ids = append(ids, r)
		}
	}
	return ids
}

// poolIndex picks router r's background for epoch e. With sliding windows a
// router's digests must differ across every epoch within reach (the tracker
// correlates them), so the pool rotates; a resend takes the entry half a
// pool away, which is out of reach too.
func (in *inputs) poolIndex(rng *rand.Rand, e, r int, resend bool) int {
	if in.w.slide > 1 {
		i := (e + r) % in.w.pool
		if resend {
			i = (i + in.w.pool/2) % in.w.pool
		}
		return i
	}
	i := rng.Intn(in.w.pool)
	if resend {
		i = (i + 1) % in.w.pool
	}
	return i
}

func (in *inputs) alignedDigest(rng *rand.Rand, e, r int, carry, resend bool) transport.Message {
	bm := in.alignedPool[r][in.poolIndex(rng, e, r, resend)]
	if carry {
		plant := in.alignedPlant[r][e/in.w.plantEvery%plantVariants]
		out := bitvec.New(bm.Len())
		out.Or(bm, plant)
		bm = out
	}
	return transport.AlignedDigest{RouterID: r, Epoch: e, Bitmap: bm}
}

func (in *inputs) unalignedDigest(rng *rand.Rand, e, r int, carry, resend bool) transport.Message {
	d := in.unalignedPool[r][in.poolIndex(rng, e, r, resend)]
	if carry {
		plant := in.unalignedPlant[r][e/in.w.plantEvery%plantVariants]
		rows := make([][]*bitvec.Vector, len(d.Rows))
		for g := range d.Rows {
			rows[g] = make([]*bitvec.Vector, len(d.Rows[g]))
			for a, row := range d.Rows[g] {
				v := bitvec.New(row.Len())
				v.Or(row, plant.Rows[g][a])
				rows[g][a] = v
			}
		}
		d = &unaligned.Digest{RouterID: r, Rows: rows}
	}
	return transport.UnalignedDigest{Epoch: e, Digest: d}
}

// staleEpoch is the epoch a stale copy sent with epoch e's burst claims:
// two spans back, below the floor dcsd has retired by the time e is sent.
func (in *inputs) staleEpoch(e int) int { return e - 2*in.w.slide - 1 }

// epoch builds epoch e's burst in send order. Router r's digests ride
// Router by router; a resend follows its original.
// Stale copies are only added once firstEpoch is far enough behind that
// their epoch is certainly retired.
func (in *inputs) epoch(e, firstEpoch int) []outMsg {
	w := in.w
	rng := stats.NewRand(subSeed(in.seed, 7, uint64(e)))
	carry := make([]bool, w.routers)
	for _, r := range in.carriers(e) {
		carry[r] = true
	}
	var out []outMsg
	for r := 0; r < w.routers; r++ {
		var resend, stale bool
		if w.resendPct > 0 {
			resend = rng.Float64() < w.resendPct
		}
		if w.stalePct > 0 {
			stale = rng.Float64() < w.stalePct && in.staleEpoch(e) >= firstEpoch+w.slide
		}
		if w.alignedBits > 0 {
			out = append(out, outMsg{m: in.alignedDigest(rng, e, r, carry[r], false)})
			if resend {
				out = append(out, outMsg{m: in.alignedDigest(rng, e, r, carry[r], true), kind: kindResend})
			}
		}
		if w.groups > 0 {
			out = append(out, outMsg{m: in.unalignedDigest(rng, e, r, carry[r], false)})
			if resend {
				out = append(out, outMsg{m: in.unalignedDigest(rng, e, r, carry[r], true), kind: kindResend})
			}
		}
		if stale {
			se := in.staleEpoch(e)
			if w.groups > 0 {
				out = append(out, outMsg{m: in.unalignedDigest(rng, se, r, false, true), kind: kindStale})
			} else {
				out = append(out, outMsg{m: in.alignedDigest(rng, se, r, false, true), kind: kindStale})
			}
		}
	}
	return out
}
