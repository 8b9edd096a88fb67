package pmem

// Device counters, plain integers like the rest of the device. The hot paths
// batch increments: one update per Load/Store call rather than one per
// cacheline. Cache hits and media reads have no counter: every line a Load or
// Store touches either hits or misses, and every miss reads media, so Stats
// derives both.
const (
	cCacheMisses = iota
	cLoads
	cStores
	cExtraLines // lines a multi-line Load or Store touched beyond its first
	cEvictions
	cMediaWrites
	cClwbs
	cSfences
	cRelocateOps
	cPendingReach
	statCount
)

// Stats are cumulative device counters. CacheHits and MediaReads are derived,
// not counted: the hits are the lines Loads and Stores touched minus the ones
// that missed, and every miss fetches its line from media.
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

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	t := &d.stat
	return Stats{
		Loads:        t[cLoads],
		Stores:       t[cStores],
		CacheHits:    t[cLoads] + t[cStores] + t[cExtraLines] - t[cCacheMisses],
		CacheMisses:  t[cCacheMisses],
		Evictions:    t[cEvictions],
		MediaWrites:  t[cMediaWrites],
		MediaReads:   t[cCacheMisses],
		Clwbs:        t[cClwbs],
		Sfences:      t[cSfences],
		RelocateOps:  t[cRelocateOps],
		PendingReach: t[cPendingReach],
	}
}
