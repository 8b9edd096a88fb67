package pmem

// Crash-site instrumentation: every persistence-relevant event in the
// simulated machine — fence/WPQ drains, relocate issues, moved-bit updates,
// reference-fixup passes, epoch-state transitions, recovery steps — passes
// through Device.Site. With no recorder armed the hook is one pointer load
// and a predicted branch (the zero-overhead contract TestGoldenCycles
// and ffccd-bench pin). With a recorder armed, every passage bumps a
// global site counter; a schedule can name an exact counter value at which
// the machine "loses power", turning the §7.1 crash campaign from a random
// step-count lottery into a deterministic, enumerable explorer: a trial first
// runs to completion counting sites, then replays with an armed index that
// fires the crash at the exact same event.
//
// Firing is a panic with *CrashAtSite. The harness (internal/faultinject)
// recovers it at the trial driver — the goroutine that owns the machine and
// runs all of its simulated threads — then calls Device.Crash(): the volatile
// machine state at the panic point is exactly the state the power failure
// destroys. The abandoned pre-crash engine holds no host lock, so it never
// wedges the device.

import (
	"fmt"

	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// SiteClass groups crash sites by the event they follow. The classes mirror
// the windows the paper's Observations 1–4 reason about.
type SiteClass uint8

const (
	// SiteSfence is the entry of an Sfence: the WPQ still holds every
	// in-flight line, so the crash policy decides all of them.
	SiteSfence SiteClass = iota
	// SiteWPQDrain is an Sfence that completed its drain: every previously
	// in-flight line is on media and the RBB has been notified.
	SiteWPQDrain
	// SiteRelocate is the issue of a relocate operation, before any
	// destination line is written.
	SiteRelocate
	// SiteRelocateLine follows each destination-line store of a relocate —
	// the mid-operation window where some of a cluster's lines are (volatile)
	// new data and the rest still hold old bytes.
	SiteRelocateLine
	// SiteMovedBit follows a persistent moved-bit update (set or clear),
	// before any flush of it — the window between moved-bit and pointer
	// fixup.
	SiteMovedBit
	// SiteBarrierFixup brackets a reference-fixup reachability pass
	// (terminate or recovery).
	SiteBarrierFixup
	// SiteEpochTransition brackets a durable GC phase-word transition
	// (idle→compacting at summary, compacting→idle at terminate).
	SiteEpochTransition
	// SiteRecoveryStep follows each step of Engine recovery — the class that
	// makes crash-during-recovery schedules addressable.
	SiteRecoveryStep

	// NumSiteClasses is the number of site classes.
	NumSiteClasses
)

var siteClassNames = [NumSiteClasses]string{
	"sfence", "wpq-drain", "relocate", "relocate-line", "moved-bit",
	"barrier-fixup", "epoch-transition", "recovery-step",
}

func (c SiteClass) String() string {
	if int(c) < len(siteClassNames) {
		return siteClassNames[c]
	}
	return "unknown"
}

// SiteCensus summarises the site passages one recorder observed.
type SiteCensus struct {
	// Total is the number of sites passed; valid schedule indices are
	// [0, Total).
	Total uint64
	// ByClass counts passages per class.
	ByClass [NumSiteClasses]uint64
	// FirstIndex is the global index of the first passage of each class, or
	// -1 if the class never fired — how campaigns target a class window
	// deterministically.
	FirstIndex [NumSiteClasses]int64
}

// CrashAtSite is the panic value an armed site recorder fires when the
// global site counter reaches the armed index. Harnesses recover it at the
// trial driver and call Device.Crash.
type CrashAtSite struct {
	Index uint64
	Class SiteClass
}

func (c *CrashAtSite) Error() string {
	return fmt.Sprintf("pmem: scheduled crash at site %d (%s)", c.Index, c.Class)
}

// CatchCrash runs f on the calling goroutine and returns the scheduled crash
// that unwound it, or nil when f returned. Any other panic propagates.
func CatchCrash(f func()) (crash *CrashAtSite) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*CrashAtSite)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	f()
	return nil
}

// SiteRecorder counts crash-site passages and optionally fires a scheduled
// crash at an exact index. Like its device, it belongs to the goroutine that
// runs the machine; the firing panic unwinds that goroutine, which must be the
// harness driver.
type SiteRecorder struct {
	census SiteCensus
	arm    int64 // index to fire at; < 0 = census only
}

func newSiteRecorder(arm int64) *SiteRecorder {
	r := &SiteRecorder{arm: arm}
	for i := range r.census.FirstIndex {
		r.census.FirstIndex[i] = -1
	}
	return r
}

// hit records one passage and reports its global index and whether the
// armed schedule fires here.
func (r *SiteRecorder) hit(class SiteClass) (idx uint64, fire bool) {
	c := &r.census
	idx = c.Total
	c.Total++
	c.ByClass[class]++
	if c.FirstIndex[class] < 0 {
		c.FirstIndex[class] = int64(idx)
	}
	return idx, r.arm >= 0 && idx == uint64(r.arm)
}

// Census snapshots the recorder's counts.
func (r *SiteRecorder) Census() SiteCensus { return r.census }

// ArmSites installs a fresh site recorder on the device. armIndex >= 0 makes
// the recorder panic with *CrashAtSite when the armIndex-th site (0-based)
// is passed; armIndex < 0 only counts. Returns the recorder so callers can
// inspect the census mid-flight. Replaces any previous recorder.
func (d *Device) ArmSites(armIndex int64) *SiteRecorder {
	r := newSiteRecorder(armIndex)
	d.sites = r
	return r
}

// DisarmSites removes the current recorder and returns its final census
// (zero census if none was armed).
func (d *Device) DisarmSites() SiteCensus {
	r := d.sites
	d.sites = nil
	if r == nil {
		return SiteCensus{}
	}
	return r.Census()
}

// Site records the passage of one crash site. With no recorder armed this is
// a single load and branch; it never charges simulated cycles, so
// arming a census changes no simulated result. In flight-recorder ring mode
// the passage is also traced (Arg = index<<8 | class) so a crash dump shows
// the exact sites leading up to the fault. ctx may be nil (power-loss
// paths).
func (d *Device) Site(ctx *sim.Ctx, class SiteClass) {
	r := d.sites
	if r == nil {
		return
	}
	idx, fire := r.hit(class)
	if d.ringRec && ctx != nil {
		d.obs.Tracer.Instant(ctx, obsv.KindSite, idx<<8|uint64(class))
	}
	if fire {
		panic(&CrashAtSite{Index: idx, Class: class})
	}
}
