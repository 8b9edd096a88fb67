package pmop

import (
	"encoding/binary"
	"fmt"

	"ffccd/internal/alloc"
	"ffccd/internal/pmem"
	"ffccd/internal/sim"
)

// Runtime manages the pools on one simulated device. A persistent superblock
// in device frame 0 records pool names and regions so pools can be reopened
// after a crash or in a later run (the PMOP's file-system-like naming role,
// §2.2.1).
type Runtime struct {
	cfg *sim.Config
	dev *pmem.Device

	pools   []*Pool // created or opened, in that order
	nextOff uint64
	epoch   uint64 // bumped per attach: pools get fresh VA bases
}

const (
	sbMagic      = 0x46464343_44444556 // "FFCCDDEV"
	sbMagicOff   = 0
	sbCountOff   = 8
	sbEntriesOff = 16
	sbEntrySize  = 64 // id u16 | pageShift u8 | pad | region u64 | size u64 | name[40]
	sbFrame      = alloc.FrameSize
)

// NewRuntime creates a runtime over a fresh device of the given size.
func NewRuntime(cfg *sim.Config, devSize uint64) *Runtime {
	dev := pmem.NewDevice(cfg, devSize)
	rt := attach(cfg, dev)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], sbMagic)
	dev.MediaWrite(sbMagicOff, b[:])
	return rt
}

// Attach builds a runtime over an existing device (after a simulated crash
// and restart). Pools are not opened automatically; call Open.
func Attach(cfg *sim.Config, dev *pmem.Device) (*Runtime, error) {
	return attachAt(cfg, dev, 1) // any nonzero epoch shifts VA bases, exercising relocatability
}

// attachAt builds a runtime over an existing device at attach epoch epoch,
// an input of every pool's VA base. It performs no media writes.
func attachAt(cfg *sim.Config, dev *pmem.Device, epoch uint64) (*Runtime, error) {
	var b [8]byte
	dev.MediaRead(sbMagicOff, b[:])
	if binary.LittleEndian.Uint64(b[:]) != sbMagic {
		return nil, fmt.Errorf("pmop: no superblock on device")
	}
	rt := attach(cfg, dev)
	rt.epoch = epoch
	rt.scanSuperblock()
	return rt, nil
}

// Epoch returns the runtime's attach epoch (fresh runtimes are epoch 0;
// each Attach bumps it so reopened pools get shifted VA bases).
func (rt *Runtime) Epoch() uint64 { return rt.epoch }

func attach(cfg *sim.Config, dev *pmem.Device) *Runtime {
	return &Runtime{cfg: cfg, dev: dev, nextOff: sbFrame}
}

// pool returns the pool named name that rt created or opened, or nil.
func (rt *Runtime) pool(name string) *Pool {
	for _, p := range rt.pools {
		if p.name == name {
			return p
		}
	}
	return nil
}

// Device returns the underlying device.
func (rt *Runtime) Device() *pmem.Device { return rt.dev }

func (rt *Runtime) scanSuperblock() {
	var b [8]byte
	rt.dev.MediaRead(sbCountOff, b[:])
	n := binary.LittleEndian.Uint64(b[:])
	end := uint64(sbFrame)
	for i := uint64(0); i < n; i++ {
		e := make([]byte, sbEntrySize)
		rt.dev.MediaRead(sbEntriesOff+i*sbEntrySize, e)
		region := binary.LittleEndian.Uint64(e[8:16])
		size := binary.LittleEndian.Uint64(e[16:24])
		if region+size > end {
			end = region + size
		}
	}
	rt.nextOff = end
}

// superblockEntry returns the superblock's entry for the pool named name.
func (rt *Runtime) superblockEntry(name string) (sbEntry, bool) {
	var b [8]byte
	rt.dev.MediaRead(sbCountOff, b[:])
	n := binary.LittleEndian.Uint64(b[:])
	for i := uint64(0); i < n; i++ {
		var e [sbEntrySize]byte
		rt.dev.MediaRead(sbEntriesOff+i*sbEntrySize, e[:])
		l := 24
		for l < len(e) && e[l] != 0 {
			l++
		}
		if string(e[24:l]) != name {
			continue
		}
		return sbEntry{
			id:        uint16(binary.LittleEndian.Uint16(e[0:2])),
			pageShift: uint(e[2]),
			region:    binary.LittleEndian.Uint64(e[8:16]),
			size:      binary.LittleEndian.Uint64(e[16:24]),
			name:      name,
		}, true
	}
	return sbEntry{}, false
}

type sbEntry struct {
	id        uint16
	pageShift uint
	region    uint64
	size      uint64
	name      string
}

func (rt *Runtime) appendSuperblock(e sbEntry) {
	var b [8]byte
	rt.dev.MediaRead(sbCountOff, b[:])
	n := binary.LittleEndian.Uint64(b[:])
	buf := make([]byte, sbEntrySize)
	binary.LittleEndian.PutUint16(buf[0:2], e.id)
	buf[2] = byte(e.pageShift)
	binary.LittleEndian.PutUint64(buf[8:16], e.region)
	binary.LittleEndian.PutUint64(buf[16:24], e.size)
	copy(buf[24:], e.name)
	rt.dev.MediaWrite(sbEntriesOff+n*sbEntrySize, buf)
	binary.LittleEndian.PutUint64(b[:], n+1)
	rt.dev.MediaWrite(sbCountOff, b[:])
}

func (rt *Runtime) vaBase(id uint16, region uint64) uint64 {
	// Distinct per pool and per attach epoch: exercises the offset-pointer
	// relocatability requirement without affecting device addressing.
	return region + (rt.epoch+1)<<34 + uint64(id)<<45
}

// Create builds a new pool. pageShift selects the OS page size used for
// footprint and TLB accounting (12 = 4 KB, 21 = 2 MB huge pages).
func (rt *Runtime) Create(name string, size uint64, pageShift uint, types *Registry) (*Pool, error) {
	if rt.pool(name) != nil {
		return nil, fmt.Errorf("pmop: pool %q already exists", name)
	}
	if len(name) > 39 {
		return nil, fmt.Errorf("pmop: pool name too long")
	}
	size = (size + alloc.FrameSize - 1) &^ (alloc.FrameSize - 1)
	if rt.nextOff+size > rt.dev.Size() {
		return nil, fmt.Errorf("pmop: device full (%d + %d > %d)", rt.nextOff, size, rt.dev.Size())
	}
	txLogOff, gcMetaOff, gcMetaSize, heapOff, heapFrames, err := layout(size)
	if err != nil {
		return nil, err
	}
	id := uint16(len(rt.pools) + 1)
	p := &Pool{
		rt: rt, id: id, name: name,
		region: rt.nextOff, size: size,
		heapOff: heapOff, heapFrames: heapFrames,
		txLogOff: txLogOff, gcMetaOff: gcMetaOff, gcMetaSize: gcMetaSize,
		pageShift: pageShift,
		dev:       rt.dev, cfg: rt.cfg, types: types,
	}
	p.vaBase = rt.vaBase(id, p.region)
	rt.nextOff += size
	p.initVolatile()

	// Persist the pool header durably (create-time setup; media writes are
	// fine — pool creation is not in any measured path).
	hdr := make([]byte, 96)
	put := func(off int, v uint64) { binary.LittleEndian.PutUint64(hdr[off:], v) }
	put(hdrMagic, poolMagic)
	put(hdrPoolID, uint64(id))
	put(hdrRoot, 0)
	put(hdrHeapOff, heapOff)
	put(hdrHeapFrames, heapFrames)
	put(hdrTxLogOff, txLogOff)
	put(hdrTxSlots, txSlotCount)
	put(hdrTxSlotSize, txSlotBytes)
	put(hdrGCMetaOff, gcMetaOff)
	put(hdrGCMetaSize, gcMetaSize)
	put(hdrGCPhase, 0)
	put(hdrPageShift, uint64(pageShift))
	rt.dev.MediaWrite(p.region, hdr)
	// Zero tx-log slot states.
	rt.dev.MediaZero(p.region+txLogOff, txSlotCount*txSlotBytes)

	rt.appendSuperblock(sbEntry{id: id, pageShift: pageShift, region: p.region, size: size, name: name})
	rt.pools = append(rt.pools, p)
	return p, nil
}

// Open reopens an existing pool from the superblock, with a fresh VA base.
// The volatile allocator state is empty: a reachability rebuild (the core
// package's Recover/Attach) must run before new allocations.
func (rt *Runtime) Open(name string, types *Registry) (*Pool, error) {
	if p := rt.pool(name); p != nil {
		return p, nil
	}
	e, ok := rt.superblockEntry(name)
	if !ok {
		return nil, fmt.Errorf("pmop: pool %q not found", name)
	}
	var hdr [96]byte
	rt.dev.MediaRead(e.region, hdr[:])
	get := func(off int) uint64 { return binary.LittleEndian.Uint64(hdr[off:]) }
	if get(hdrMagic) != poolMagic {
		return nil, fmt.Errorf("pmop: pool %q header corrupt", name)
	}
	p := &Pool{
		rt: rt, id: e.id, name: name,
		region: e.region, size: e.size,
		heapOff: get(hdrHeapOff), heapFrames: get(hdrHeapFrames),
		txLogOff: get(hdrTxLogOff), gcMetaOff: get(hdrGCMetaOff), gcMetaSize: get(hdrGCMetaSize),
		pageShift: uint(get(hdrPageShift)),
		dev:       rt.dev, cfg: rt.cfg, types: types,
	}
	p.vaBase = rt.vaBase(e.id, e.region)
	p.initVolatile()
	rt.pools = append(rt.pools, p)
	return p, nil
}
