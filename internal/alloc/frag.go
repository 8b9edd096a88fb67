package alloc

// FragStats reports the fragmentation state of the heap using the paper's
// metric (eq. 1): fragR = memory footprint / live data size. Footprint is
// OS-page granular — with 2 MB pages a single live object pins the whole
// huge page, which is why the paper's Figure 1 shows worse ratios at 2 MB.
type FragStats struct {
	FootprintBytes uint64
	LiveBytes      uint64
	UsedFrames     int
	FragRatio      float64
}

// Frag computes fragmentation statistics with the given OS page shift
// (12 for 4 KB pages, 21 for 2 MB huge pages).
func (h *Heap) Frag(pageShift uint) FragStats {
	var footprint uint64
	if pageShift <= 12 {
		footprint = uint64(h.usedFrames) * FrameSize
	} else {
		// Count distinct OS pages containing at least one used frame: the
		// pages whose frames are not all in the free-frame bitmap.
		framesPerPage := 1 << (pageShift - 12)
		pages := 0
		for p := 0; p < h.frames; p += framesPerPage {
			end := min(p+framesPerPage, h.frames)
			if h.freeIn(p, end) < end-p {
				pages++
			}
		}
		footprint = uint64(pages) << pageShift
	}
	live := h.liveBytes
	if h.dupBytes < live {
		live -= h.dupBytes
	}
	st := FragStats{
		FootprintBytes: footprint,
		LiveBytes:      live,
		UsedFrames:     h.usedFrames,
	}
	if live > 0 {
		st.FragRatio = float64(footprint) / float64(live)
	}
	return st
}

// LiveBytes returns the current live-allocation total.
func (h *Heap) LiveBytes() uint64 { return h.liveBytes }

// UsedFrames returns the count of non-free frames.
func (h *Heap) UsedFrames() int { return h.usedFrames }
