package ztier

// Latency model constants, calibrated so that the *relative* ordering and
// rough magnitudes match the paper's Figure 2a characterization and public
// kernel benchmarks:
//
//   - lz4 decodes fastest, lzo next, zstd mid, deflate slowest (§2, §5);
//   - zbud lookups beat z3fold beat zsmalloc (simple freelists vs. size
//     classes — §2's "zsmalloc … has relatively high memory management
//     overheads");
//   - Optane-backed pools add media latency on every object read (§5).
//
// All values are nanoseconds for a 4 KB page. The simulator charges these
// on its virtual clock; wall-clock speed of this Go process never leaks
// into results.

var codecDecompressNsPer4K = map[string]float64{
	"lz4":     2000,
	"lz4hc":   2000, // same decoder as lz4
	"lzo":     3500,
	"lzo-rle": 3000,
	"zstd":    9000,
	"deflate": 25000,
}

var codecCompressNsPer4K = map[string]float64{
	"lz4":     4000,
	"lz4hc":   40000, // deep match search
	"lzo":     6000,
	"lzo-rle": 5500,
	"zstd":    35000,
	"deflate": 70000,
}

var poolLookupNs = map[string]float64{
	"zbud":     300,
	"z3fold":   600,
	"zsmalloc": 1200,
}

var poolStoreNs = map[string]float64{
	"zbud":     500,
	"z3fold":   900,
	"zsmalloc": 1800,
}

// Same-filled page handling (zswap's memchr_inv scan and memset fill).
// SameFilledFillNs is the load latency of a same-filled page.
const (
	sameFilledScanNs = 500
	SameFilledFillNs = 700
)

// DecompressNs returns the modeled decompression time for size bytes of
// output with the named codec. Unknown codecs get a conservative default.
func DecompressNs(codec string, size int) float64 {
	ns, ok := codecDecompressNsPer4K[codec]
	if !ok {
		ns = 10000
	}
	return ns * float64(size) / float64(PageSize)
}

// CompressNs returns the modeled compression time for size bytes of input
// with the named codec.
func CompressNs(codec string, size int) float64 {
	ns, ok := codecCompressNsPer4K[codec]
	if !ok {
		ns = 20000
	}
	return ns * float64(size) / float64(PageSize)
}

// PoolLookupNs returns the modeled pool-manager overhead of locating and
// mapping one object.
func PoolLookupNs(pool string) float64 {
	if ns, ok := poolLookupNs[pool]; ok {
		return ns
	}
	return 1000
}

// PoolStoreNs returns the modeled pool-manager overhead of allocating and
// inserting one object.
func PoolStoreNs(pool string) float64 {
	if ns, ok := poolStoreNs[pool]; ok {
		return ns
	}
	return 1500
}
