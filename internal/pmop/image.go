package pmop

import (
	"ffccd/internal/alloc"
	"ffccd/internal/pmem"
	"ffccd/internal/sim"
)

// Image is what a fork needs of a quiescent pool to reproduce it: the device
// (dirty media pages, cache, in-flight lines, counters), the heap's volatile
// tables, the op count and the transaction-slot order. The experiment grids'
// fork driver and the crash campaigns' prefixes capture one and fork it per
// run or trial. Fork only reads an image, so one image may be forked any
// number of times, concurrently.
type Image struct {
	Dev     pmem.DeviceCheckpoint
	heap    alloc.HeapCheckpoint
	ops     uint64
	txOrder []int
}

// CaptureInto captures p's image into img, reusing its buffers. The pool must
// be quiescent.
func (p *Pool) CaptureInto(img *Image) {
	p.dev.CheckpointInto(&img.Dev)
	p.heap.CheckpointInto(&img.heap)
	img.ops, img.txOrder = p.Ops.Load(), p.TxSlotOrder()
}

// Fork restores img into a device of recycled media and reopens the pool
// named name with reg at attach epoch 0, so the fork has the captured pool's
// VA base. The caller releases the media (pmem.Device.ReleaseMedia) once done
// with the pool; on error Fork has released it.
func (img *Image) Fork(cfg *sim.Config, name string, reg *Registry) (*Runtime, *Pool, error) {
	dev := pmem.NewDeviceForRestore(cfg, uint64(img.Dev.MediaLen))
	dev.Restore(&img.Dev)
	rt, err := AttachAtEpoch(cfg, dev, 0)
	var p *Pool
	if err == nil {
		p, err = rt.Open(name, reg)
	}
	if err != nil {
		dev.ReleaseMedia()
		return nil, nil, err
	}
	p.heap.Restore(&img.heap)
	p.Ops.Store(img.ops)
	p.RestoreTxSlotOrder(img.txOrder)
	return rt, p, nil
}
