package workload

import (
	"strings"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
)

// Colocated interleaves several workloads ("tenants") over one shared
// address space, round-robin — the multi-tenant deployment the paper
// names as future-work direction (v). Each tenant's pages are offset into
// its own contiguous range so the tiering system sees one big application
// whose regions belong to different services with different data and
// access patterns.
type Colocated struct {
	tenants []Workload
	bases   []mem.PageID
	total   int64
	next    int
}

// Colocate builds a colocated workload from tenants (at least one).
func Colocate(tenants ...Workload) *Colocated {
	c := &Colocated{tenants: tenants}
	var off int64
	for _, t := range tenants {
		// Region-align each tenant so 2 MB regions never span tenants.
		c.bases = append(c.bases, mem.PageID(off))
		pages := t.NumPages()
		pages = (pages + mem.RegionPages - 1) / mem.RegionPages * mem.RegionPages
		off += pages
	}
	c.total = off
	return c
}

// Name implements Workload.
func (c *Colocated) Name() string {
	names := make([]string, len(c.tenants))
	for i, t := range c.tenants {
		names[i] = t.Name()
	}
	return "colocated(" + strings.Join(names, "+") + ")"
}

// NumPages implements Workload.
func (c *Colocated) NumPages() int64 { return c.total }

// Content implements Workload. The per-tenant content profiles differ;
// a manager for a Colocated workload is filled from ContentSource, which
// stitches each tenant's real profile. Content returns Mixed as the
// single-profile approximation.
func (c *Colocated) Content() corpus.Profile { return corpus.Mixed }

// ContentSource returns a composite content source honoring each tenant's
// own content profile within its address range. seed fixes generation.
func (c *Colocated) ContentSource(seed uint64) corpus.Source {
	segs := make([]corpus.Segment, len(c.tenants))
	for i, t := range c.tenants {
		var pages int64
		if i+1 < len(c.tenants) {
			pages = int64(c.bases[i+1] - c.bases[i])
		} else {
			pages = c.total - int64(c.bases[i])
		}
		segs[i] = corpus.Segment{
			Pages:  pages,
			Source: corpus.NewGenerator(t.Content(), seed+uint64(i)*7919),
		}
	}
	return corpus.NewComposite(segs...)
}

// ContentSource is what a manager for wl is filled from: a Colocated's
// stitched per-tenant source, otherwise a generator of wl's own profile.
// seed fixes generation.
func ContentSource(wl Workload, seed uint64) corpus.Source {
	if c, ok := wl.(*Colocated); ok {
		return c.ContentSource(seed)
	}
	return corpus.NewGenerator(wl.Content(), seed)
}

// BaseOpNs implements Workload: the current tenant's op cost (tenants
// rotate per op, so this uses the tenant whose op comes next).
func (c *Colocated) BaseOpNs() float64 {
	return c.tenants[c.next].BaseOpNs()
}

// NextOp implements Workload: round-robin across tenants with page
// offsetting.
func (c *Colocated) NextOp(buf []Access) []Access {
	i := c.next
	c.next = (c.next + 1) % len(c.tenants)
	start := len(buf)
	buf = c.tenants[i].NextOp(buf)
	for j := start; j < len(buf); j++ {
		buf[j].Page += c.bases[i]
	}
	return buf
}
