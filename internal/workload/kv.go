package workload

import (
	"fmt"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

// KVDriver selects the request generator for a KV workload.
type KVDriver int

// Drivers.
const (
	// DriverYCSB issues zipfian-distributed requests (YCSB "workloadc"
	// uses a zipfian request distribution, θ = 0.99), with an optional
	// slow hotspot shift reproducing Memcached/YCSB's drifting access
	// pattern (§8.2.2, Figure 9d).
	DriverYCSB KVDriver = iota
	// DriverMemtier issues Gaussian-distributed requests, like
	// memtier_benchmark's Gaussian access pattern option.
	DriverMemtier
)

// KVConfig configures a KV-store workload.
type KVConfig struct {
	// Name overrides the reported name.
	Name string
	// Keys is the number of key-value pairs.
	Keys int64
	// ValueSize is the value size in bytes (paper: 1 KB and 4 KB).
	ValueSize int64
	// Driver picks YCSB (zipfian) or memtier (gaussian).
	Driver KVDriver
	// WriteRatio is the fraction of SET operations (workloadc is ~0).
	WriteRatio float64
	// ShiftEvery rotates the YCSB hotspot every N ops (0 = static).
	ShiftEvery int64
	// Seed makes the request stream deterministic.
	Seed uint64
}

// KV simulates an in-memory key-value store (Memcached/Redis): a hash
// index region followed by the value heap. A GET touches the key's index
// bucket page and its value page(s); a SET additionally dirties them.
type KV struct {
	cfg         KVConfig
	rng         *stats.RNG
	sampler     stats.Sampler
	indexPages  int64
	valPages    int64
	valPerPage  int64 // values per page (ValueSize <= PageSize)
	pagesPerVal int64 // pages per value (ValueSize > PageSize)
}

// NewKV builds a KV workload.
func NewKV(cfg KVConfig) (*KV, error) {
	if cfg.Keys <= 0 || cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("workload: invalid KV config %+v", cfg)
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x6b76) // "kv"
	k := &KV{cfg: cfg, rng: rng}
	// Index: 8 bytes per key.
	k.indexPages = pagesFor(cfg.Keys * 8)
	if cfg.ValueSize <= mem.PageSize {
		k.valPerPage = mem.PageSize / cfg.ValueSize
		k.valPages = (cfg.Keys + k.valPerPage - 1) / k.valPerPage
		k.pagesPerVal = 1
	} else {
		k.pagesPerVal = pagesFor(cfg.ValueSize)
		k.valPages = cfg.Keys * k.pagesPerVal
		k.valPerPage = 1
	}
	switch cfg.Driver {
	case DriverYCSB:
		z := stats.NewZipf(rng.Split(), cfg.Keys, 0.99, false)
		if cfg.ShiftEvery > 0 {
			z.SetShift(cfg.ShiftEvery, cfg.Keys/64+1)
		}
		k.sampler = z
	case DriverMemtier:
		g := stats.NewGaussian(rng.Split(), cfg.Keys, float64(cfg.Keys)/2, float64(cfg.Keys)/10)
		k.sampler = g
	default:
		return nil, fmt.Errorf("workload: unknown KV driver %d", cfg.Driver)
	}
	return k, nil
}

// Name implements Workload.
func (k *KV) Name() string {
	if k.cfg.Name != "" {
		return k.cfg.Name
	}
	return "kv"
}

// NumPages implements Workload.
func (k *KV) NumPages() int64 { return k.indexPages + k.valPages }

// Content implements Workload: KV heaps mix serialized objects, small
// binary structures, and text.
func (k *KV) Content() corpus.Profile { return corpus.Mixed }

// BaseOpNs implements Workload: protocol parse + hash + dispatch.
func (k *KV) BaseOpNs() float64 { return 2000 }

// indexHash spreads key over the hash index: the first 64 bits of the
// generator seeded with the key, drawn from a generator on the stack.
func indexHash(key int64) uint64 {
	r := stats.MakeRNG(uint64(key))
	return r.Uint64()
}

// valuePage returns the first page of key's value.
func (k *KV) valuePage(key int64) mem.PageID {
	if k.pagesPerVal == 1 {
		return mem.PageID(k.indexPages + key/k.valPerPage)
	}
	return mem.PageID(k.indexPages + key*k.pagesPerVal)
}

// NextOp implements Workload.
func (k *KV) NextOp(buf []Access) []Access {
	key := k.sampler.Next()
	write := k.rng.Float64() < k.cfg.WriteRatio
	// Index bucket access: hash spreads keys over index pages.
	idxPage := mem.PageID(int64(indexHash(key) % uint64(k.indexPages)))
	buf = append(buf, Access{Page: idxPage})
	// Value access(es).
	vp := k.valuePage(key)
	for i := int64(0); i < k.pagesPerVal; i++ {
		buf = append(buf, Access{Page: vp + mem.PageID(i), Write: write})
	}
	return buf
}

// Memcached returns the paper's Memcached workload at the given scale.
// scalePages is the target footprint in pages; the paper loads ≈42 GB of
// 1 KB objects for YCSB, or 1 KB/4 KB for memtier.
func Memcached(driver KVDriver, valueSize int64, scalePages int64, seed uint64) *KV {
	name := "Memcached/YCSB"
	shift := int64(0)
	if driver == DriverYCSB {
		// YCSB on Memcached exhibits the §8.2.2 drifting hot set.
		shift = 30000
	} else {
		name = fmt.Sprintf("Memcached/memtier-%dK", valueSize/1024)
	}
	// Pick Keys so the value heap is ~7/8 of the footprint.
	valBudget := scalePages * mem.PageSize * 7 / 8
	keys := valBudget / valueSize
	if keys < 16 {
		keys = 16
	}
	kv, err := NewKV(KVConfig{
		Name: name, Keys: keys, ValueSize: valueSize,
		Driver: driver, WriteRatio: 0.05, ShiftEvery: shift, Seed: seed,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return kv
}

// Redis returns the paper's Redis workload (90 GB of 1 KB values,
// YCSB-driven) at the given scale.
func Redis(scalePages int64, seed uint64) *KV {
	valBudget := scalePages * mem.PageSize * 7 / 8
	keys := valBudget / 1024
	if keys < 16 {
		keys = 16
	}
	kv, err := NewKV(KVConfig{
		Name: "Redis/YCSB", Keys: keys, ValueSize: 1024,
		Driver: DriverYCSB, WriteRatio: 0.02, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return kv
}
