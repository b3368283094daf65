package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix: the fleet that produces digests, how they
// travel, the dcsd deployment that receives them, and the open-loop rates.
type workload struct {
	name string

	routers int
	// Aligned digests of alignedBits bits; unaligned digests of groups ×
	// arrays × arrayBits. A zero width means the fleet sends no digest of
	// that kind.
	alignedBits               int
	groups, arrays, arrayBits int
	background                int // background packets per router-epoch
	contentPackets            int // planted content length in packets
	plantEvery                int // epochs e with e%plantEvery == 0 carry content
	carrierShare              int // 1/carrierShare of the routers carry it
	pool                      int // background digests per router, rotated over epochs

	transport string // "udp" or "tcp"
	shards    int    // 0 = single dcsd, else a coordinator plus this many shards
	journal   bool
	recover   int // unanalyzed epochs written into each shard journal before launch
	slide     int

	resendPct float64 // share of digests resent with other content (DupKeepLast)
	stalePct  float64 // share of digests also sent stale, below the retired floor

	loRate, hiRate float64 // open-loop epochs per second
}

// tick is the -window tick every deployment runs with. dcsd closes an
// epoch after a tick without a new digest, so the tick must outlast any
// stall in ingest — a descheduled virtual CPU included — and any one tick's
// analysis, or epochs close before their bursts are in.
const tick = 100 * time.Millisecond

// coordTick is the shard coordinator's -window tick.
const coordTick = 10 * time.Millisecond

// clients is the number of client connections (or UDP sockets) the
// generator uses, nproc on the 2-core reference machine; it also sizes the
// generator's and the reference's worker pools.
const clients = 2

var workloads = []workload{
	{
		name:    "fleet-udp",
		routers: 64, alignedBits: 1 << 16, groups: 4, arrays: 10, arrayBits: 512,
		background: 1000, contentPackets: 60, plantEvery: 4, carrierShare: 4, pool: 8,
		transport: "udp", slide: 1,
		loRate: 1, hiRate: 1.6,
	},
	{
		name:    "durable-sharded",
		routers: 64, alignedBits: 1 << 16,
		background: 2500, contentPackets: 60, plantEvery: 4, carrierShare: 4, pool: 6,
		transport: "tcp", shards: 2, journal: true, recover: 3, slide: 1,
		loRate: 1.5, hiRate: 3,
	},
	{
		name:    "sliding-churn",
		routers: 72, groups: 2, arrays: 8, arrayBits: 256,
		background: 300, contentPackets: 60, plantEvery: 4, carrierShare: 4, pool: 6,
		transport: "tcp", slide: 3, resendPct: 0.04, stalePct: 0.03,
		loRate: 1, hiRate: 2,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// digestsPerEpoch counts the digests one epoch carries before resends and
// stale copies.
func (w workload) digestsPerEpoch() int {
	n := 0
	if w.alignedBits > 0 {
		n += w.routers
	}
	if w.groups > 0 {
		n += w.routers
	}
	return n
}
