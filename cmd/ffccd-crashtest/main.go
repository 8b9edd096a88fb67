// ffccd-crashtest runs the §7.1 crash-consistency validation: fault
// injection during the concurrent compacting phase across the paper's 26
// settings, with the two-step post-crash checker.
//
// Per setting, a census pass enumerates every persistence-relevant crash
// site of a deterministic trial, then armed trials crash at each site (sampled
// down to -max-sites), and with -nested also a second time inside the
// recovery that follows. Every failure prints a one-line repro command that
// replays the trial bit-identically; -shrink minimizes it first.
//
// A batch setting (the default: all 26) runs one store's application threads
// and the compactor interleaved in a fixed order on one goroutine:
//
//	ffccd-crashtest -nested -shrink
//	ffccd-crashtest -setting BzTree/4T/ffccd -max-sites 64
//
// A serving setting, serve/<scheme>, is the online analogue: the census runs
// under open-loop traffic over the dispatch phase, and after an armed crash
// the run continues — recovery, durable-ack validation, degraded-mode
// retry/backoff — to the full op budget; its summary prints sites-per-class
// coverage. serve/<N>S/<scheme> runs an N-shard deployment: one census pass
// yields every shard's site space, each shard is crashed in turn while its
// siblings keep serving, and the coverage line splits counts by crash-target
// shard. -setting takes a comma-separated list:
//
//	ffccd-crashtest -setting serve/none,serve/ffccd,serve/stw -max-sites 24 -nested
//	ffccd-crashtest -setting serve/4S/ffccd -max-sites 32
//
// Replay one schedule (the line a failing campaign printed, of either kind);
// a flag the replay would ignore is refused:
//
//	ffccd-crashtest -repro '{"setting":"LL/1T/ffccd","seed":1,...}'
//	ffccd-crashtest -repro '{"scheme":"ffccd","clients":8,...}'
//
// -flightrec N arms a per-trial flight recorder: the newest N trace events
// per simulated thread are kept in a ring and dumped at the injected crash,
// showing what the machine was doing right before the fault. Intended for
// replaying a single failing trial, not full campaigns (it dumps per trial).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ffccd/internal/faultinject"
	"ffccd/internal/obsv"
	"ffccd/internal/workpool"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with its arguments and exit code made explicit: 0 every trial
// passed, 1 a trial failed, 2 the command line could not be used.
func run(args []string) int {
	fs := flag.NewFlagSet("ffccd-crashtest", flag.ContinueOnError)
	setting := fs.String("setting", "", "run only these settings, comma-separated (e.g. LL/1T/ffccd,serve/ffccd,serve/4S/stw)")
	seed := fs.Int64("seed", 1, "base churn seed")
	maxSites := fs.Int("max-sites", 128, "scheduled sites per setting (0 = exhaustive; class-first sites always kept)")
	nested := fs.Bool("nested", false, "add crash-during-recovery schedules")
	maxNested := fs.Int("max-nested", 0, "nested schedules per setting (0 = one per first-level site)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-trial watchdog; expiry reports the trial as hung (0 = off)")
	shrink := fs.Bool("shrink", false, "minimize each failing schedule before reporting it")
	parallel := fs.Int("parallel", 0, "worker count for trials (0 = GOMAXPROCS / FFCCD_PARALLEL)")
	repro := fs.String("repro", "", "replay one scheduled trial from its repro line and exit")
	flightrec := fs.Int("flightrec", 0, "dump a flight-recorder ring of the newest N events per simulated thread at each injected crash (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"max-sites", *maxSites}, {"max-nested", *maxNested}, {"parallel", *parallel}, {"flightrec", *flightrec}} {
		if c.n < 0 {
			fmt.Fprintf(os.Stderr, "ffccd-crashtest: -%s %d: counts cannot be negative\n", c.name, c.n)
			return 2
		}
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "ffccd-crashtest: -timeout %v: durations cannot be negative\n", *timeout)
		return 2
	}

	var topts faultinject.TrialOptions
	if *flightrec > 0 {
		n := *flightrec
		topts.Obs = func(s faultinject.Setting, trialSeed int64) *obsv.Obs {
			o := obsv.New(n)
			o.OnCrash = func(o *obsv.Obs) {
				fmt.Printf("-- flight recorder at injected crash: %s seed %d --\n", s, trialSeed)
				obsv.WriteFlightRecorder(os.Stdout, o)
			}
			return o
		}
	}
	var sched faultinject.Schedule
	if *repro != "" {
		var err error
		if sched, err = faultinject.ParseSchedule(*repro); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// A flag the replay would ignore is refused: only -flightrec, and
		// -parallel for a sharded line's shard jobs, reach it.
		sharded := false
		if s, ok := sched.(faultinject.ServeRepro); ok {
			sharded = s.Shards > 1
		}
		ignored := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "repro" && f.Name != "flightrec" && (f.Name != "parallel" || !sharded) {
				ignored = f.Name
			}
		})
		if ignored != "" {
			fmt.Fprintf(os.Stderr, "ffccd-crashtest: -%s does not apply to this -repro line\n", ignored)
			return 2
		}
	}
	if *parallel > 0 {
		workpool.SetParallelism(*parallel)
	}
	if sched != nil {
		return runRepro(sched, topts)
	}

	settings := faultinject.AllSettings()
	if *setting != "" {
		settings = nil
		for _, name := range strings.Split(*setting, ",") {
			s, err := faultinject.ParseSetting(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			settings = append(settings, s)
		}
	}
	co := faultinject.CampaignOptions{
		Seed: *seed, MaxSites: *maxSites, Nested: *nested, MaxNested: *maxNested,
		Timeout: *timeout, Shrink: *shrink, Trial: topts,
	}
	failures := 0
	start := time.Now()
	for _, s := range settings {
		t0 := time.Now()
		out := faultinject.ExploreSetting(s, co)
		failures += len(out.Failures)
		fmt.Printf("%s  (%.1fs)\n", out.Summary(), time.Since(t0).Seconds())
		for i, f := range out.Failures {
			if i >= 3 {
				fmt.Printf("    ... %d more failures\n", len(out.Failures)-3)
				break
			}
			fmt.Printf("    %v\n", f)
		}
	}
	fmt.Printf("\ncrash campaign: %d failures, %.1fs\n", failures, time.Since(start).Seconds())
	if failures > 0 {
		return 1
	}
	return 0
}

// runRepro replays one schedule and reports the verdict.
func runRepro(sched faultinject.Schedule, topts faultinject.TrialOptions) int {
	res, err := sched.Run(topts)
	fmt.Printf("schedule: %s\n%s\n", sched.MarshalLine(), res.Summary())
	if err != nil {
		fmt.Printf("FAIL: %v\n", err)
		return 1
	}
	fmt.Println("PASS")
	return 0
}
