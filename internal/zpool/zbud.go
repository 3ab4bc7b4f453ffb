package zpool

// zbud: each pool page holds at most two buddies — one allocated from the
// start of the page, one from the end. Free space is tracked in 64-byte
// chunks; pages with exactly one buddy sit on per-free-chunk "unbuddied"
// lists for first-fit placement, like the kernel's implementation.

const zbudChunkSize = 64
const zbudChunks = PageSize / zbudChunkSize

type zbudPage struct {
	data  [PageSize]byte
	first int // size of the first buddy (0 = empty)
	last  int // size of the last buddy (0 = empty)
	// gens holds one generation per buddy slot, bumped when that slot is
	// freed. A buddy slot can be refilled while its page stays live (a
	// later Store first-fits into it), so the tag must be per slot, not
	// per page, and must survive whole-page recycling.
	gens [2]uint32
	// list linkage within an unbuddied list (index into pool's pages, -1 = none)
	prev, next int
	listIdx    int // which unbuddied list this page is on (-1 = none/buddied)
	live       bool
}

func (p *zbudPage) freeChunks() int {
	used := chunksOf(p.first) + chunksOf(p.last)
	return zbudChunks - used
}

func chunksOf(size int) int {
	return (size + zbudChunkSize - 1) / zbudChunkSize
}

// Zbud is the two-objects-per-page pool manager.
type Zbud struct {
	pages     []*zbudPage
	freePages []int               // recycled page slots
	unbuddied [zbudChunks + 1]int // head page index per free-chunk count, -1 = empty
	stats     Stats
}

// NewZbud returns an empty zbud pool.
func NewZbud() *Zbud {
	z := &Zbud{}
	for i := range z.unbuddied {
		z.unbuddied[i] = -1
	}
	return z
}

// Name implements Pool.
func (*Zbud) Name() string { return "zbud" }

const (
	zbudFirst = 0
	zbudLast  = 1
)

func zbudHandle(pageIdx, which int, gen uint32) Handle {
	return Handle(uint64(gen)<<32 | uint64(uint32(pageIdx))<<1 | uint64(which))
}

func zbudDecode(h Handle) (pageIdx, which int, gen uint32) {
	return int(uint32(h) >> 1), int(h & 1), uint32(h >> 32)
}

func (z *Zbud) listRemove(idx int) {
	p := z.pages[idx]
	if p.listIdx < 0 {
		return
	}
	if p.prev >= 0 {
		z.pages[p.prev].next = p.next
	} else {
		z.unbuddied[p.listIdx] = p.next
	}
	if p.next >= 0 {
		z.pages[p.next].prev = p.prev
	}
	p.prev, p.next, p.listIdx = -1, -1, -1
}

func (z *Zbud) listInsert(idx int) {
	p := z.pages[idx]
	fc := p.freeChunks()
	if (p.first == 0) == (p.last == 0) {
		// Either empty or fully buddied: not on any unbuddied list.
		p.listIdx = -1
		p.prev, p.next = -1, -1
		return
	}
	head := z.unbuddied[fc]
	p.listIdx = fc
	p.prev = -1
	p.next = head
	if head >= 0 {
		z.pages[head].prev = idx
	}
	z.unbuddied[fc] = idx
}

// Store implements Pool.
func (z *Zbud) Store(data []byte) (Handle, error) {
	size := len(data)
	if size == 0 || size > PageSize {
		return 0, ErrTooLarge
	}
	need := chunksOf(size)

	// First-fit: smallest unbuddied list with enough room.
	for fc := need; fc <= zbudChunks; fc++ {
		idx := z.unbuddied[fc]
		if idx < 0 {
			continue
		}
		p := z.pages[idx]
		z.listRemove(idx)
		var which int
		if p.first == 0 {
			p.first = size
			copy(p.data[:], data)
			which = zbudFirst
		} else {
			p.last = size
			copy(p.data[PageSize-size:], data)
			which = zbudLast
		}
		z.listInsert(idx)
		z.stats.Objects++
		z.stats.StoredBytes += int64(size)
		z.stats.Stores++
		return zbudHandle(idx, which, p.gens[which]), nil
	}

	// No fit: allocate a new page.
	idx := z.allocPage()
	p := z.pages[idx]
	p.first = size
	copy(p.data[:], data)
	z.listInsert(idx)
	z.stats.Objects++
	z.stats.StoredBytes += int64(size)
	z.stats.Stores++
	return zbudHandle(idx, zbudFirst, p.gens[zbudFirst]), nil
}

func (z *Zbud) allocPage() int {
	if n := len(z.freePages); n > 0 {
		idx := z.freePages[n-1]
		z.freePages = z.freePages[:n-1]
		p := z.pages[idx]
		// Reset the page but keep slot generations: stale handles into the
		// previous occupants must stay invalid after recycling.
		gens := p.gens
		*p = zbudPage{prev: -1, next: -1, listIdx: -1, live: true}
		p.gens = gens
		z.stats.PoolPages++
		return idx
	}
	z.pages = append(z.pages, &zbudPage{prev: -1, next: -1, listIdx: -1, live: true})
	z.stats.PoolPages++
	return len(z.pages) - 1
}

func (z *Zbud) page(h Handle) (*zbudPage, int, int, error) {
	idx, which, gen := zbudDecode(h)
	if idx >= len(z.pages) {
		return nil, 0, 0, ErrInvalidHandle
	}
	p := z.pages[idx]
	if !p.live || p.gens[which] != gen {
		return nil, 0, 0, ErrInvalidHandle
	}
	var size int
	if which == zbudFirst {
		size = p.first
	} else {
		size = p.last
	}
	if size == 0 {
		return nil, 0, 0, ErrInvalidHandle
	}
	return p, idx, size, nil
}

// Load implements Pool.
func (z *Zbud) Load(h Handle, dst []byte) ([]byte, error) {
	p, _, size, err := z.page(h)
	if err != nil {
		return dst, err
	}
	_, which, _ := zbudDecode(h)
	if which == zbudFirst {
		return append(dst, p.data[:size]...), nil
	}
	return append(dst, p.data[PageSize-size:]...), nil
}

// Size implements Pool.
func (z *Zbud) Size(h Handle) (int, error) {
	_, _, size, err := z.page(h)
	return size, err
}

// Free implements Pool.
func (z *Zbud) Free(h Handle) error {
	p, idx, size, err := z.page(h)
	if err != nil {
		return err
	}
	_, which, _ := zbudDecode(h)
	z.listRemove(idx)
	if which == zbudFirst {
		p.first = 0
	} else {
		p.last = 0
	}
	p.gens[which]++
	z.stats.Objects--
	z.stats.StoredBytes -= int64(size)
	z.stats.Frees++
	if p.first == 0 && p.last == 0 {
		p.live = false
		z.freePages = append(z.freePages, idx)
		z.stats.PoolPages--
	} else {
		z.listInsert(idx)
	}
	return nil
}

// Compact implements Pool: the kernel's zbud has no compactor, so this is
// a no-op.
func (z *Zbud) Compact() int { return 0 }

// CompactPass implements Pool: no compactor, zero work.
func (z *Zbud) CompactPass() CompactResult { return CompactResult{} }

// Stats implements Pool.
func (z *Zbud) Stats() Stats { return z.stats }
