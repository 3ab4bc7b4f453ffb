package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFillGolden pins every profile's page bytes: SHA-256 over 64 pages at
// two versions (mem.Manager mixes a page's version in as
// pageIdx + version·NumPages), recorded while Fill heap-allocated its
// generator and Dickens pages their Zipf. Compression ratios, and so every
// TCO number, are a function of these bytes.
func TestFillGolden(t *testing.T) {
	want := map[string]string{
		"zero":     "07854d2fef297a06ba81685e660c332de36d5d18d546927d30daad6d7fda1541",
		"nci":      "5ba75c6bcb74b7c4964f4df854f5b3bfe1082f312020b3d420f213b71116f4c0",
		"binary":   "d9a1381becbb0c97de50330bcc9a3923fe22c54fab86d8a63c456461e6cbce7e",
		"dickens":  "1e02bde7e293d8564dfec859c8585cd51c82bd2358b18ce0b9f9b8065bf99d36",
		"mixed":    "80b56bcea2eb0830deee7781c7ed72870ca583db96b81116ca69b31c5ede8f8b",
		"random":   "26ac889f426390ce35ca2828793e2e8cb4b3e686bdf4a107706ad8d665f920bd",
		"regional": "cac9769770a285a81784abd8935447127a0e856dc44f61ab2fe1c7e21a52abe4",
	}
	const numPages = 1 << 20
	buf := make([]byte, 4096)
	for _, prof := range Profiles() {
		g := NewGenerator(prof, 0x5eed)
		h := sha256.New()
		for version := uint64(0); version < 2; version++ {
			for p := uint64(0); p < 64; p++ {
				g.Fill(p+version*numPages, buf)
				h.Write(buf)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[prof.String()] {
			t.Errorf("%q: %q,", prof.String(), got)
		}
	}
}

// TestFillAllocsPerRun: filling a page allocates nothing on any profile —
// the page's generator and a Dickens page's word sampler live on Fill's
// stack. Every demotion regenerates its page through here.
func TestFillAllocsPerRun(t *testing.T) {
	buf := make([]byte, 4096)
	for _, prof := range Profiles() {
		g := NewGenerator(prof, 0x5eed)
		p := uint64(0)
		if n := testing.AllocsPerRun(64, func() { g.Fill(p, buf); p++ }); n != 0 {
			t.Errorf("%s: %v allocations per Fill, want 0", prof, n)
		}
	}
}
