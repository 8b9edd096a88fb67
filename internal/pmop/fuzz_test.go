package pmop

import (
	"math/bits"
	"testing"

	"ffccd/internal/pmem"
	"ffccd/internal/sim"
)

// txCells is how many objects FuzzTxCrash's transactions write, each of
// txWords u64 words.
const (
	txCells = 4
	txWords = 8
)

// FuzzTxCrash decodes bytes into a run of undo-log transactions over a few
// objects, power-fails the machine at the crash site and under the policy the
// input names, reopens the pool and runs RecoverTx. Every transaction that
// committed must read back whole, an aborted one not at all, and the one the
// crash interrupted all or nothing: all only if the crash came inside its
// Commit. A site past the end of the run crashes after its last operation.
//
// prog is opcode bytes, each followed by the argument bytes it reads
// (missing ones read as zero): 0 Begin, 1–2 Add(cell, word, words), 3
// store(range, word), 4 Commit, 5 Abort. An Add or store with no transaction
// open begins one; a store with nothing logged yet does nothing. policy picks
// drop-all, keep-all, or keeping the in-flight lines whose address xor salt
// has odd parity.
func FuzzTxCrash(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 7, 3, 0, 0, 3, 0, 5, 4}, uint16(9), uint8(2), uint64(0x5a))
	f.Add([]byte{1, 0, 0, 7, 1, 1, 2, 3, 3, 0, 1, 3, 1, 2, 4, 1, 2, 0, 0, 3, 0, 0, 5, 1, 3, 4, 2}, uint16(15), uint8(1), uint64(0))
	f.Add([]byte{1, 2, 4, 3, 3, 0, 0, 1, 0, 0, 0, 3, 1, 3, 4, 1, 3, 0, 7, 3, 0, 6, 3, 0, 2}, uint16(400), uint8(0), uint64(0))
	f.Add([]byte{1, 0, 0, 7, 3, 0, 0, 3, 0, 6, 1, 1, 0, 7, 3, 1, 1, 4}, uint16(6), uint8(2), uint64(0x3c))
	f.Add([]byte{2, 3, 6, 1, 3, 0, 0, 3, 0, 1, 4, 2, 1, 0, 7, 3, 0, 3, 5, 1, 2, 2, 2, 3, 0, 0, 4}, uint16(20), uint8(2), uint64(0xff))
	// Two Adds and a crash at the second one's count fence that keeps the
	// count line and drops the entry's: an Add that fenced only once replays
	// a torn entry here.
	f.Add([]byte("10001001"), uint16(4), uint8('q'), uint64(249))
	f.Fuzz(func(t *testing.T, prog []byte, site uint16, policy uint8, salt uint64) {
		if len(prog) > 256 {
			prog = prog[:256] // keeps every transaction far inside its log slot
		}
		arg := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		cfg := sim.DefaultConfig()
		cfg.CacheBytes = 16 * 1024 // small enough that unflushed lines get evicted to media
		rt := NewRuntime(&cfg, 8<<20)
		reg := NewRegistry()
		cell := reg.Register(TypeInfo{Name: "cell", Kind: KindFixed, Size: 8 * txWords})
		p, err := rt.Create("fuzz", 4<<20, 12, reg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewCtx(&cfg)
		var offs [txCells]uint64
		var durable, cur [txCells][txWords]uint64 // what must survive; what the stores left
		for c := range offs {
			obj, err := p.Alloc(ctx, cell, 0)
			if err != nil {
				t.Fatal(err)
			}
			offs[c] = obj.Offset()
			for w := range durable[c] {
				durable[c][w] = uint64(c*100 + w)
				p.RawStoreU64(ctx, offs[c]+uint64(8*w), durable[c][w])
			}
		}
		cur = durable
		p.Device().FlushAll(ctx)

		dev := p.Device()
		switch policy % 3 {
		case 0:
			dev.SetCrashPolicy(pmem.DropAllInflight)
		case 1:
			dev.SetCrashPolicy(pmem.KeepAllInflight)
		default:
			dev.SetCrashPolicy(func(line uint64) bool { return bits.OnesCount64(line^salt)&1 == 1 })
		}
		type span struct{ cell, word, words int }
		var (
			tx         *Tx
			logged     []span
			committing bool
			next       = uint64(1 << 32)
		)
		begin := func() {
			if tx == nil {
				tx, logged = p.Begin(ctx), logged[:0]
			}
		}
		dev.ArmSites(int64(site))
		crash := pmem.CatchCrash(func() {
			for len(prog) > 0 {
				switch arg() % 6 {
				case 0:
					begin()
				case 1, 2:
					begin()
					s := span{cell: arg() % txCells, word: arg() % txWords}
					s.words = 1 + arg()%(txWords-s.word)
					tx.Add(ctx, offs[s.cell]+uint64(8*s.word), uint64(8*s.words))
					logged = append(logged, s)
				case 3:
					begin()
					i, w := arg(), arg()
					if len(logged) == 0 {
						continue
					}
					s := logged[i%len(logged)]
					w = s.word + w%s.words
					next++
					p.RawStoreU64(ctx, offs[s.cell]+uint64(8*w), next)
					cur[s.cell][w] = next
				case 4:
					if tx != nil {
						committing = true
						tx.Commit(ctx)
						committing, tx, durable = false, nil, cur
					}
				case 5:
					if tx != nil {
						tx.Abort(ctx)
						tx, cur = nil, durable
					}
				}
			}
		})
		dev.DisarmSites()
		dev.Crash()

		rt2, err := Attach(&cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := rt2.Open("fuzz", reg)
		if err != nil {
			t.Fatal(err)
		}
		ctx2 := sim.NewCtx(&cfg)
		p2.RecoverTx(ctx2)
		if again := p2.RecoverTx(ctx2); len(again) != 0 {
			t.Fatalf("a second recovery found %d logged ranges", len(again))
		}
		var got [txCells][txWords]uint64
		for c := range got {
			for w := range got[c] {
				got[c][w] = p2.RawLoadU64(ctx2, offs[c]+uint64(8*w))
			}
		}
		switch {
		case got == durable:
		case got == cur && crash != nil && committing:
			// The crash came inside Commit after its state word persisted.
		default:
			t.Fatalf("crash %v (inside Commit: %v), open transaction %v: recovered\n%v\nwant the committed state\n%v\nor, inside Commit, all of the open transaction\n%v",
				crash, committing, tx != nil, got, durable, cur)
		}
	})
}
