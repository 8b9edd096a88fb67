// ffccd-trace generates, inspects and replays operation traces (the
// WHISPER-style workload methodology): a trace replayed against any store
// reproduces an identical allocation and fragmentation history, so scheme
// comparisons are exact. With a scheme, replay defragments between
// operations: after every insert and delete it makes the §5 pmalloc/pfree
// trigger check and runs a cycle when fragmentation has crossed the trigger.
//
//	ffccd-trace gen -ops 100000 -keys 20000 -out w.trace
//	ffccd-trace info -in w.trace
//	ffccd-trace replay -in w.trace -store BT -scheme ffccd+cl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ffccd/internal/checker"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/experiments"
	"ffccd/internal/sim"
	"ffccd/internal/trace"
	"ffccd/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ffccd-trace {gen|info|replay} [flags]")
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	ops := fs.Int("ops", 100000, "operations")
	keys := fs.Uint64("keys", 20000, "key space")
	minv := fs.Int("min", 64, "min value bytes")
	maxv := fs.Int("max", 256, "max value bytes")
	ins := fs.Int("insert", 55, "insert percentage")
	del := fs.Int("delete", 25, "delete percentage")
	seed := fs.Int64("seed", 1, "seed")
	out := fs.String("out", "workload.trace", "output file")
	fs.Parse(args)

	t := trace.Generate(trace.GenerateConfig{
		Ops: *ops, KeySpace: *keys, MinVal: *minv, MaxVal: *maxv,
		InsertPct: *ins, DeletePct: *del, Seed: *seed,
	})
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d records to %s\n", len(t.Records), *out)
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "workload.trace", "trace file")
	fs.Parse(args)
	t := load(*in)
	var ins, del, get int
	var bytes uint64
	for _, r := range t.Records {
		switch r.Op {
		case trace.OpInsert:
			ins++
			bytes += uint64(r.Size)
		case trace.OpDelete:
			del++
		default:
			get++
		}
	}
	fmt.Printf("%s: %d records (%d insert / %d delete / %d get), %.1f MB inserted, %d final keys\n",
		*in, len(t.Records), ins, del, get, float64(bytes)/(1<<20), len(t.Model()))
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "workload.trace", "trace file")
	store := fs.String("store", "LL", "store (LL/AVL/SS/BT/RBT/BzTree/FPTree/Echo/pmemkv)")
	schemeName := fs.String("scheme", "none", "defrag scheme (none/espresso/sfccd/ffccd/ffccd+cl)")
	fs.Parse(args)
	t := load(*in)

	scheme := map[string]core.Scheme{
		"none": core.SchemeNone, "espresso": core.SchemeEspresso, "sfccd": core.SchemeSFCCD,
		"ffccd": core.SchemeFFCCD, "ffccd+cl": core.SchemeFFCCDCheckLookup,
	}[*schemeName]

	env, err := experiments.NewEnv(512<<20, 12)
	if err != nil {
		log.Fatal(err)
	}
	s, err := experiments.BuildStore(env.Ctx, env.Pool, *store, workload.Config{InitInserts: len(t.Model()) + 64})
	if err != nil {
		log.Fatal(err)
	}
	var eng *core.Engine
	replayed := s
	if scheme != core.SchemeNone {
		opt := core.DefaultOptions()
		opt.Scheme = scheme
		eng = core.NewEngine(env.Pool, opt)
		replayed = triggered{Store: s, eng: eng, gcCtx: sim.NewCtx(&env.Cfg)}
	}
	st, err := trace.Replay(env.Ctx, replayed, t)
	if err != nil {
		log.Fatal(err)
	}
	if eng != nil {
		eng.Close()
	}
	frag := env.Pool.Heap().Frag(12)
	fmt.Printf("replayed %d ops (%d/%d/%d ins/del/get) in %.2f Mcycles\n",
		len(t.Records), st.Inserts, st.Deletes, st.Gets, float64(st.Cycles)/1e6)
	fmt.Printf("footprint %.2f MB, live %.2f MB, fragR %.2f\n",
		float64(frag.FootprintBytes)/(1<<20), float64(frag.LiveBytes)/(1<<20), frag.FragRatio)
	if eng != nil {
		es := eng.Stats()
		fmt.Printf("defrag: %d cycles, %d objects moved, %d frames released\n",
			es.Cycles, es.ObjectsMoved, es.FramesReleased)
	}
	if err := checker.CheckStore(env.Ctx, s, t.Model()); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	if _, err := checker.CheckGraph(env.Ctx, env.Pool); err != nil {
		log.Fatalf("graph check failed: %v", err)
	}
	fmt.Println("verification: store matches the trace model; graph consistent")
}

// triggered is a store whose inserts and deletes end with the trigger check
// pmalloc/pfree make (§5), running a defragmentation cycle on its own
// simulated thread when it fires.
type triggered struct {
	ds.Store
	eng   *core.Engine
	gcCtx *sim.Ctx
}

func (s triggered) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	err := s.Store.Insert(ctx, key, val)
	s.check()
	return err
}

func (s triggered) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	ok, err := s.Store.Delete(ctx, key)
	s.check()
	return ok, err
}

func (s triggered) check() {
	if s.eng.Triggered() {
		s.eng.RunCycle(s.gcCtx)
	}
}

func load(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	t, err := trace.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	return t
}
