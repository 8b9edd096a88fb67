package alloc

import "testing"

// FuzzHeapOps decodes bytes into the operations the differential test mixes
// and runs them against the reference walk, comparing the whole heap after
// every step. The first byte picks the geometry; each operation is an opcode
// byte and up to three argument bytes, missing ones reading as zero. (Opcode
// 7's first argument picks among the whole-heap operations: the top of its
// range the ones that cut the tables' reach back, the rest by residue as
// before those existed, so older corpus entries still mean what they did.)
func FuzzHeapOps(f *testing.F) {
	f.Add([]byte{3, 0, 255, 15, 0, 255, 15, 0, 255, 15, 3, 1, 0, 100, 0})
	f.Add([]byte{1, 0, 100, 6, 0, 200, 2, 0, 0, 4, 0, 0, 3, 0, 0, 0, 30, 0})
	f.Add([]byte{40, 5, 2, 10, 8, 5, 2, 12, 4, 5, 255, 0, 1, 5, 2, 250, 9, 6, 2, 2, 5, 2, 40, 3, 7, 0, 7, 1, 7, 2, 1})
	f.Add([]byte{60, 0, 255, 15, 0, 255, 15, 0, 200, 9, 7, 230, 7, 1, 0, 90, 0, 7, 244, 1, 0, 255, 15, 5, 50, 9, 9, 7, 250, 0, 80, 1, 7, 226, 3, 3, 0, 255, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		arg := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		frames := 1 + arg()%70
		d := newDiffer(t, FrameSize, frames, 1)
		for len(data) > 0 {
			switch op := arg(); op % 8 {
			case 0, 1, 2:
				d.alloc(uint64(arg() | arg()<<8&0x1f00))
			case 3, 4:
				d.free(arg())
			case 5:
				d.placeAt(int(int8(arg())), arg()-2, arg()-2)
			case 6:
				d.setState(arg()%frames, FrameState(arg()%5))
			case 7:
				switch a := arg(); {
				case a >= 248:
					d.reset()
				case a >= 240:
					d.rebuildBelow(arg() % (frames + 1))
				case a >= 224:
					d.restoreStale(arg() | arg()<<8)
				case a%3 == 0:
					d.releaseFrame(arg() % frames)
				case a%3 == 1:
					d.restoreFresh()
				default:
					d.rebuild(arg() % 4)
				}
			}
		}
		d.full()
	})
}
