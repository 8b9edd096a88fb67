package pmem

import "encoding/binary"

// The media digest is a word-wise FNV-1a variant: every little-endian 64-bit
// word w maps h to (h ^ w) * hashPrime, the trailing bytes of an unaligned
// size go in one at a time, and a final avalanche spreads the result.
const (
	hashOffset = 0xcbf29ce484222325
	hashPrime  = 0x100000001b3

	wordsPerDirtyPage = DirtyPageSize / 8
)

// HashMedia digests the full persistent image (volatile cache state
// excluded) into 64 bits — the cheap bit-identity witness crash-schedule
// replays compare. Call only on a quiescent device.
//
// The walk is proportional to the dirty-page bitmap, not the media size. A
// page outside the bitmap is all-zero (the base-image invariant checkpoints
// and ReleaseMedia rely on), and a zero word maps h to h * hashPrime, so a run
// of k clean pages multiplies h by hashPrime^(512k) mod 2^64 — computed in
// closed form instead of by 512k multiplications. The digest is bit-identical
// to hashing every word (hash_ref_test.go keeps that loop as the reference).
func (d *Device) HashMedia() uint64 {
	h := uint64(hashOffset)
	size := uint64(len(d.media))
	full := size >> DirtyPageShift // whole pages; a partial tail page follows
	next := uint64(0)              // first page not yet folded into h
	for _, dp := range dirtyPages(nil, d.dirty) {
		p := uint64(dp)
		if p >= full {
			break
		}
		h *= powHashPrime((p - next) * wordsPerDirtyPage)
		h = hashBytes(h, d.media[p<<DirtyPageShift:(p+1)<<DirtyPageShift])
		next = p + 1
	}
	h *= powHashPrime((full - next) * wordsPerDirtyPage)
	h = hashBytes(h, d.media[full<<DirtyPageShift:])
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashBytes folds b into h: whole words first, then the trailing bytes.
func hashBytes(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * hashPrime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * hashPrime
	}
	return h
}

// powHashPrime returns hashPrime^n mod 2^64 by square-and-multiply.
func powHashPrime(n uint64) uint64 {
	r, sq := uint64(1), uint64(hashPrime)
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			r *= sq
		}
		sq *= sq
	}
	return r
}
