// Package bloom implements the plain Bloom filter used by the summary phase
// to record relocation pages and modelled in hardware by the Bloom Filter
// Cache (§4.3.2). Only the standard library is used; the k hash functions are
// derived from double hashing over two FNV-1a variants.
package bloom

// Filter is a fixed-size Bloom filter. The zero value is unusable; use New.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
	count  int
}

// New creates a filter with the given size in bytes and number of hash
// functions. The paper's BFC holds 1024-byte filters.
func New(sizeBytes, hashes int) *Filter {
	f := new(Filter)
	f.Init(sizeBytes, hashes)
	return f
}

// Init makes f the empty filter New(sizeBytes, hashes) returns, in f's own
// bit array when it is large enough.
func (f *Filter) Init(sizeBytes, hashes int) {
	if sizeBytes < 8 {
		sizeBytes = 8
	}
	if hashes < 1 {
		hashes = 1
	}
	n := (sizeBytes + 7) / 8
	if cap(f.bits) < n {
		f.bits = make([]uint64, n)
	} else {
		f.bits = f.bits[:n]
		clear(f.bits)
	}
	f.nbits, f.hashes, f.count = uint64(sizeBytes)*8, hashes, 0
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hash2 computes two independent 64-bit hashes of v.
func hash2(v uint64) (uint64, uint64) {
	h1 := uint64(fnvOffset)
	h2 := uint64(fnvOffset ^ 0x9E3779B97F4A7C15)
	for i := 0; i < 8; i++ {
		b := byte(v >> (8 * i))
		h1 = (h1 ^ uint64(b)) * fnvPrime
		h2 = (h2 ^ uint64(b^0x5A)) * fnvPrime
	}
	return h1, h2
}

// Add inserts v.
func (f *Filter) Add(v uint64) {
	h1, h2 := hash2(v)
	for i := 0; i < f.hashes; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		f.bits[bit/64] |= 1 << (bit % 64)
	}
	f.count++
}

// Test reports whether v may have been added (false positives possible,
// false negatives impossible).
func (f *Filter) Test(v uint64) bool {
	h1, h2 := hash2(v)
	for i := 0; i < f.hashes; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of Add calls.
func (f *Filter) Count() int { return f.count }

// SizeBytes returns the filter's bit-array size in bytes.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// Reset clears the filter.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.count = 0
}
