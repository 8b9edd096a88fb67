package pmem

import (
	"sync/atomic"

	"ffccd/internal/sim"
)

// Device counters. The hot paths batch increments: one shard update per
// Load/Store call rather than one mutex round-trip per cacheline. Cache hits
// have no counter: every line a Load or Store touches either hits or misses,
// so an access that hits pays for one increment (its cLoads or cStores) and
// Stats derives the hits. cCacheMisses comes first because sumStats must read
// it first.
const (
	cCacheMisses = iota
	cLoads
	cStores
	cExtraLines // lines a multi-line Load or Store touched beyond its first
	cEvictions
	cMediaWrites
	cMediaReads
	cClwbs
	cSfences
	cRelocateOps
	cPendingReach
	statCount
)

// statShards is the number of counter shards (power of two). Line-addressed
// events pick a shard from the line index, thread-scoped events (sfence,
// relocate) from the issuing Ctx's shard hint, so concurrent simulation
// threads land on different cachelines.
const statShards = 64

// statShard is one cache-line-padded bank of counters.
type statShard struct {
	c [statCount]atomic.Uint64
	_ [(128 - (statCount*8)%128) % 128]byte
}

func (d *Device) lineShard(lineIdx uint64) *statShard {
	return &d.stat[lineIdx&(statShards-1)]
}

func (d *Device) ctxShard(ctx *sim.Ctx) *statShard {
	if ctx == nil {
		return &d.stat[0]
	}
	return &d.stat[uint64(ctx.Shard)&(statShards-1)]
}

// Stats are cumulative device counters. Counters are sharded atomics: every
// increment is applied exactly once, so after the device quiesces the sums
// are exact (a snapshot taken while operations are still in flight is a
// consistent sum of completed increments per counter, though not a single
// instant across counters). CacheHits is derived, not counted: the lines
// Loads and Stores touched minus the ones that missed.
type Stats struct {
	Loads        uint64
	Stores       uint64
	CacheHits    uint64 // lines touched by Load/Store that were resident
	CacheMisses  uint64
	Evictions    uint64
	MediaWrites  uint64 // lines written to media (PM write traffic)
	MediaReads   uint64 // lines fetched from media
	Clwbs        uint64
	Sfences      uint64
	RelocateOps  uint64
	PendingReach uint64 // pending lines that reached persistence
}

// sumStats sums the counters over the shards. Within a shard it reads the
// misses before the accesses they belong to: an access counts itself before
// its misses, both in the same shard, so even a snapshot taken under
// concurrent traffic never sees more misses than lines touched.
func (d *Device) sumStats() (t [statCount]uint64) {
	for i := range d.stat {
		for j := 0; j < statCount; j++ {
			t[j] += d.stat[i].c[j].Load()
		}
	}
	return t
}

// Stats returns a snapshot of the device counters (sum over shards).
func (d *Device) Stats() Stats {
	t := d.sumStats()
	return Stats{
		Loads:        t[cLoads],
		Stores:       t[cStores],
		CacheHits:    t[cLoads] + t[cStores] + t[cExtraLines] - t[cCacheMisses],
		CacheMisses:  t[cCacheMisses],
		Evictions:    t[cEvictions],
		MediaWrites:  t[cMediaWrites],
		MediaReads:   t[cMediaReads],
		Clwbs:        t[cClwbs],
		Sfences:      t[cSfences],
		RelocateOps:  t[cRelocateOps],
		PendingReach: t[cPendingReach],
	}
}

// ResetStats zeroes the counters. Call only on a quiescent device.
func (d *Device) ResetStats() {
	for i := range d.stat {
		for j := 0; j < statCount; j++ {
			d.stat[i].c[j].Store(0)
		}
	}
}
