// ffccd-crashtest runs the §7.1 crash-consistency validation: fault
// injection during the concurrent compacting phase across the paper's 26
// settings, with the two-step post-crash checker.
//
// Batch campaign (the default): per setting, a census pass enumerates every
// persistence-relevant crash site of a deterministic trial — the setting's
// application threads and the compactor interleaved in a fixed order on one
// goroutine — then armed trials crash at each site (sampled down to
// -max-sites), and with -nested also a second time inside the recovery that
// follows. Every failure prints a one-line repro command that replays the
// trial bit-identically; -shrink minimizes it first:
//
//	ffccd-crashtest -nested -shrink
//	ffccd-crashtest -setting BzTree/4T/ffccd -max-sites 64
//
// Serving campaign (-serve): the online analogue. Per scheme, a census pass
// under open-loop traffic enumerates the dispatch phase's crash sites, then
// armed trials crash at selected sites and the run continues — recovery,
// durable-ack validation, degraded-mode retry/backoff — to the full op
// budget. Failures print one-line ServeRepro commands; the summary prints
// sites-per-class coverage:
//
//	ffccd-crashtest -serve -max-sites 24 -nested
//	ffccd-crashtest -serve -scheme ffccd -shrink
//
// -serve-shards N runs the serving campaign against an N-shard deployment:
// one census pass yields every shard's site space, each shard is crashed in
// turn while its siblings keep serving, and the coverage line splits counts
// by crash-target shard:
//
//	ffccd-crashtest -serve -serve-shards 4 -max-sites 32
//
// Replay one schedule (the line a failing campaign printed; its kind is read
// from the line, so -serve is optional):
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
	"slices"
	"time"

	"ffccd/internal/faultinject"
	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/workpool"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with its arguments and exit code made explicit: 0 every trial
// passed, 1 a trial failed, 2 the command line could not be used.
func run(args []string) int {
	fs := flag.NewFlagSet("ffccd-crashtest", flag.ContinueOnError)
	setting := fs.String("setting", "", "run only this setting (e.g. LL/1T/ffccd)")
	seed := fs.Int64("seed", 1, "base churn seed")
	maxSites := fs.Int("max-sites", 128, "scheduled sites per setting (0 = exhaustive; class-first sites always kept)")
	nested := fs.Bool("nested", false, "add crash-during-recovery schedules")
	maxNested := fs.Int("max-nested", 0, "nested schedules per setting (0 = one per first-level site)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-trial watchdog; expiry reports the trial as hung (0 = off)")
	shrink := fs.Bool("shrink", false, "minimize each failing schedule before reporting it")
	parallel := fs.Int("parallel", 0, "worker count for trials (0 = GOMAXPROCS / FFCCD_PARALLEL)")
	repro := fs.String("repro", "", "replay one scheduled trial from its repro line and exit")
	flightrec := fs.Int("flightrec", 0, "dump a flight-recorder ring of the newest N events per simulated thread at each injected crash (0 = off)")
	serve := fs.Bool("serve", false, "run the serving-path campaign (online crash-recovery-resume) instead of the batch campaigns")
	scheme := fs.String("scheme", "all", "serving campaign: scheme to crash (none|ffccd|stw|mesh|all)")
	serveShards := fs.Int("serve-shards", 1, "serving campaign: shard the deployment across N simulated machines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A flag of the campaign not chosen would be ignored: refuse it.
	misplaced, ignored := map[string]bool{"scheme": !*serve, "serve-shards": !*serve, "setting": *serve}, ""
	fs.Visit(func(f *flag.Flag) {
		if misplaced[f.Name] {
			ignored = f.Name
		}
	})
	if ignored != "" {
		fmt.Fprintf(os.Stderr, "ffccd-crashtest: -%s does not apply with -serve=%v\n", ignored, *serve)
		return 2
	}

	if *parallel > 0 {
		workpool.SetParallelism(*parallel)
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
	if *repro != "" {
		return runRepro(*repro, topts)
	}

	co := faultinject.CampaignOptions{
		Seed: *seed, MaxSites: *maxSites, Nested: *nested, MaxNested: *maxNested,
		Timeout: *timeout, Shrink: *shrink, Trial: topts,
	}
	if *serve {
		schemes := faultinject.ServeSchemes
		if *scheme != "all" {
			if !slices.Contains(schemes, *scheme) {
				fmt.Fprintf(os.Stderr, "ffccd-crashtest: unknown serving scheme %q (none|ffccd|stw|mesh|all)\n", *scheme)
				return 2
			}
			schemes = []string{*scheme}
		}
		co.Shards = *serveShards
		if _, err := redisws.ShardKeys(faultinject.DefaultServeKeys, co.Shards); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return runCampaign("serving", len(schemes), func(i int) faultinject.CampaignOutcome {
			return faultinject.ExploreServeScheme(schemes[i], co)
		})
	}

	settings := faultinject.AllSettings()
	if *setting != "" {
		s, err := faultinject.ParseSetting(*setting)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		settings = []faultinject.Setting{s}
	}
	return runCampaign("scheduled", len(settings), func(i int) faultinject.CampaignOutcome {
		return faultinject.ExploreSetting(settings[i], co)
	})
}

// printFailures lists a campaign's first failures under its summary line.
func printFailures[F any](failures []F) {
	for i, f := range failures {
		if i >= 3 {
			fmt.Printf("    ... %d more failures\n", len(failures)-3)
			break
		}
		fmt.Printf("    %v\n", f)
	}
}

// runCampaign runs the n crash-site exploration campaigns of one kind
// ("scheduled": one per batch setting; "serving": one per scheme, whose
// summary also prints the sites-per-class coverage) and prints each one's
// summary and failures, every failure with its one-line repro command.
func runCampaign(kind string, n int, explore func(i int) faultinject.CampaignOutcome) int {
	failures := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		out := explore(i)
		status := "PASS"
		switch {
		case out.Skipped:
			status = "SKIP (not fragmented)"
		case len(out.Failures) > 0:
			status = "FAIL"
			failures += len(out.Failures)
		}
		width, coverage := 22, ""
		if kind == "serving" {
			width, coverage = 12, "  coverage: "+out.CoverageString()
		}
		fmt.Printf("%-*s %s  %d/%d schedules, %d sites%s  (%.1fs)\n", width, out.Label, status,
			out.Passed, out.Scheduled, out.SitesTotal, coverage, time.Since(t0).Seconds())
		printFailures(out.Failures)
	}
	fmt.Printf("\n%s campaign: %d failures, %.1fs\n", kind, failures, time.Since(start).Seconds())
	if failures > 0 {
		return 1
	}
	return 0
}

// runRepro replays one schedule of either kind and reports the verdict.
func runRepro(line string, topts faultinject.TrialOptions) int {
	sched, err := faultinject.ParseSchedule(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res, err := sched.Run(topts)
	fmt.Printf("schedule: %s\n%s\n", sched.MarshalLine(), res.Summary())
	if err != nil {
		fmt.Printf("FAIL: %v\n", err)
		return 1
	}
	fmt.Println("PASS")
	return 0
}
