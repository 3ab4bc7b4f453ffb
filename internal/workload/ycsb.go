package workload

import (
	"fmt"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

// YCSB implements the full YCSB core workload suite over the KV layout
// (the paper uses workload C; the rest of the suite exercises the tiering
// system with writes, inserts, scans and recency-skewed reads):
//
//	A: 50% read / 50% update, zipfian
//	B: 95% read /  5% update, zipfian
//	C: 100% read, zipfian (the paper's configuration)
//	D: 95% read /  5% insert, "latest" distribution — reads chase the
//	   most recently inserted keys
//	E: 95% scan (1–100 keys) / 5% insert, zipfian start keys
//	F: 50% read / 50% read-modify-write, zipfian
//
// The store is pre-loaded to 70% of capacity; inserts (D, E) append new
// keys until capacity, then wrap onto the oldest keys, so the hot frontier
// of workload D moves through the address space over time — a distinct,
// realistic drift pattern for tiering studies.
type YCSB struct {
	letter     byte
	rng        *stats.RNG
	zipf       *stats.Zipf
	keys       int64 // capacity
	inserted   int64 // keys currently live (grows with inserts)
	nextInsert int64
	valSize    int64
	indexPages int64
	valPerPage int64
}

// NewYCSB builds the lettered YCSB workload over capacity keys of
// valueSize bytes.
func NewYCSB(letter byte, capacity, valueSize int64, seed uint64) (*YCSB, error) {
	switch letter {
	case 'A', 'B', 'C', 'D', 'E', 'F':
	default:
		return nil, fmt.Errorf("workload: unknown YCSB workload %q", string(letter))
	}
	if capacity < 16 || valueSize <= 0 || valueSize > mem.PageSize {
		return nil, fmt.Errorf("workload: bad YCSB sizing (keys=%d, valueSize=%d)", capacity, valueSize)
	}
	y := &YCSB{
		letter:  letter,
		rng:     stats.NewRNG(seed ^ 0x79637362),
		keys:    capacity,
		valSize: valueSize,
	}
	y.inserted = capacity * 7 / 10
	y.nextInsert = y.inserted
	y.indexPages = pagesFor(capacity * 8)
	y.valPerPage = mem.PageSize / valueSize
	// The zipf universe covers loaded keys; ranks map onto the live key
	// space (or recency order for D) at sample time.
	y.zipf = stats.NewZipf(y.rng.Split(), y.inserted, 0.99, false)
	return y, nil
}

// Name implements Workload.
func (y *YCSB) Name() string { return "YCSB-" + string(y.letter) }

// NumPages implements Workload.
func (y *YCSB) NumPages() int64 {
	return y.indexPages + (y.keys+y.valPerPage-1)/y.valPerPage
}

// Content implements Workload.
func (*YCSB) Content() corpus.Profile { return corpus.Mixed }

// BaseOpNs implements Workload.
func (y *YCSB) BaseOpNs() float64 {
	if y.letter == 'E' {
		return 5000 // scans do more protocol work
	}
	return 2000
}

func (y *YCSB) indexPage(key int64) mem.PageID {
	return mem.PageID(int64(indexHash(key) % uint64(y.indexPages)))
}

func (y *YCSB) valuePage(key int64) mem.PageID {
	return mem.PageID(y.indexPages + key/y.valPerPage)
}

// pick returns a key by the workload's request distribution.
func (y *YCSB) pick() int64 {
	r := y.zipf.Next() % y.inserted
	if y.letter == 'D' {
		// Latest: rank 0 = newest key. Keys wrap at capacity, so the
		// newest key is (nextInsert-1) mod capacity.
		newest := (y.nextInsert - 1 + y.keys) % y.keys
		k := newest - r
		if k < 0 {
			k += y.keys
		}
		return k
	}
	return r
}

func (y *YCSB) read(buf []Access, key int64) []Access {
	buf = append(buf, Access{Page: y.indexPage(key)})
	return append(buf, Access{Page: y.valuePage(key)})
}

func (y *YCSB) update(buf []Access, key int64) []Access {
	buf = append(buf, Access{Page: y.indexPage(key)})
	return append(buf, Access{Page: y.valuePage(key), Write: true})
}

func (y *YCSB) insert(buf []Access) []Access {
	key := y.nextInsert % y.keys
	y.nextInsert++
	if y.inserted < y.keys {
		y.inserted++
	}
	buf = append(buf, Access{Page: y.indexPage(key), Write: true})
	return append(buf, Access{Page: y.valuePage(key), Write: true})
}

func (y *YCSB) scan(buf []Access, key int64) []Access {
	n := 1 + y.rng.Int63n(100)
	buf = append(buf, Access{Page: y.indexPage(key)})
	lastPage := mem.PageID(-1)
	for i := int64(0); i < n; i++ {
		k := (key + i) % y.inserted
		if p := y.valuePage(k); p != lastPage {
			buf = append(buf, Access{Page: p})
			lastPage = p
		}
	}
	return buf
}

// NextOp implements Workload.
func (y *YCSB) NextOp(buf []Access) []Access {
	u := y.rng.Float64()
	switch y.letter {
	case 'A':
		if u < 0.5 {
			return y.read(buf, y.pick())
		}
		return y.update(buf, y.pick())
	case 'B':
		if u < 0.95 {
			return y.read(buf, y.pick())
		}
		return y.update(buf, y.pick())
	case 'C':
		return y.read(buf, y.pick())
	case 'D':
		if u < 0.95 {
			return y.read(buf, y.pick())
		}
		return y.insert(buf)
	case 'E':
		if u < 0.95 {
			return y.scan(buf, y.pick())
		}
		return y.insert(buf)
	default: // F
		if u < 0.5 {
			return y.read(buf, y.pick())
		}
		key := y.pick()
		buf = y.read(buf, key)
		return append(buf, Access{Page: y.valuePage(key), Write: true})
	}
}
