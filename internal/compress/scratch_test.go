package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"tierscape/internal/corpus"
)

// goldenPages is a fixed mix of every content profile at page size and at
// a few odd sizes (shorter than a match, longer than a page).
func goldenPages() [][]byte {
	var pages [][]byte
	for _, prof := range corpus.Profiles() {
		g := corpus.NewGenerator(prof, 42)
		for i := 0; i < 64; i++ {
			size := 4096
			switch i % 8 {
			case 5:
				size = 100
			case 6:
				size = 9000
			case 7:
				size = 7
			}
			pages = append(pages, g.Page(uint64(i), size))
		}
	}
	return pages
}

// TestZstdOutputGolden pins the zstd-class codec's output bytes: the hash
// was recorded from the per-page-allocating encoder this one replaced, so
// neither the stateless path nor a reused Scratch may change a byte (tier
// ratios, admission decisions and every figure depend on them).
func TestZstdOutputGolden(t *testing.T) {
	const wantLen, want = 467640, "bec3da019601c37007f63f3bae4f674756d80f9746f4f689e30032ba35f9dd65"
	c := MustLookup("zstd")
	var s Scratch
	for _, tc := range []struct {
		name     string
		compress func(dst, src []byte) []byte
	}{
		{"stateless", c.Compress},
		{"scratch", func(dst, src []byte) []byte { return s.Compress(c, dst, src) }},
	} {
		h := sha256.New()
		total := 0
		for _, pg := range goldenPages() {
			out := tc.compress(nil, pg)
			total += len(out)
			h.Write(out)
		}
		if got := hex.EncodeToString(h.Sum(nil)); total != wantLen || got != want {
			t.Errorf("%s: %d bytes, sha256 %s; want %d, %s", tc.name, total, got, wantLen, want)
		}
	}
}

// fuzzScratchReuse checks, for the named codec, that one Scratch reused
// across the blocks an input is cut into is indistinguishable from the
// stateless codec on each block, and that its output round-trips.
// (The scratch is per input: state kept across inputs would make coverage
// depend on execution order, which the fuzzing engine cannot minimise.)
func fuzzScratchReuse(f *testing.F, name string) {
	f.Add([]byte(nil), uint16(0))
	f.Add(bytes.Repeat([]byte{0xAA}, 5000), uint16(4096))
	f.Add(bytes.Repeat([]byte("abc"), 3000), uint16(7))
	f.Add(corpus.NewGenerator(corpus.Dickens, 1).Page(0, 2*4096+100), uint16(4096))
	f.Add(corpus.NewGenerator(corpus.Random, 1).Page(0, 2500), uint16(1000))
	c := MustLookup(name)
	f.Fuzz(func(t *testing.T, data []byte, step uint16) {
		var s Scratch
		var comp, plain []byte
		// Cut data into blocks of step bytes, at most 16 of them; an empty
		// input is one empty block.
		n := int(step)
		if n == 0 || len(data)/n >= 16 {
			n = len(data)/16 + 1
		}
		for first := true; first || len(data) > 0; first = false {
			block := data[:min(n, len(data))]
			data = data[len(block):]
			comp = s.Compress(c, comp[:0], block)
			if want := c.Compress(nil, block); !bytes.Equal(comp, want) {
				t.Fatalf("%s: reused encoder emitted %d bytes, fresh %d, for a %d-byte block", name, len(comp), len(want), len(block))
			}
			var err error
			plain, err = c.Decompress(plain[:0], comp)
			if err != nil || !bytes.Equal(plain, block) {
				t.Fatalf("%s: decoder: %d bytes out of %d, err %v", name, len(plain), len(block), err)
			}
		}
	})
}

func FuzzZstdEncoderReuse(f *testing.F)    { fuzzScratchReuse(f, "zstd") }
func FuzzDeflateEncoderReuse(f *testing.F) { fuzzScratchReuse(f, "deflate") }

// TestScratchReuseAcrossPages is the fuzz property on the golden pages,
// for every registered codec (the stateless ones go through the fallback).
func TestScratchReuseAcrossPages(t *testing.T) {
	pages := goldenPages()
	for _, c := range allCodecs(t) {
		var s Scratch
		var comp, plain []byte
		for i, pg := range pages {
			comp = s.Compress(c, comp[:0], pg)
			if !bytes.Equal(comp, c.Compress(nil, pg)) {
				t.Fatalf("%s: page %d: reused encoder differs from fresh", c.Name(), i)
			}
			var err error
			if plain, err = c.Decompress(plain[:0], comp); err != nil || !bytes.Equal(plain, pg) {
				t.Fatalf("%s: page %d: decoder: %v", c.Name(), i, err)
			}
		}
		if _, err := c.Decompress(nil, []byte{0xFF, 0x00, 0x01}); c.Name() == "deflate" && err == nil {
			t.Errorf("%s: corrupt input accepted by the decoder", c.Name())
		}
		// A failed decode must not poison the reused encoder.
		comp = s.Compress(c, comp[:0], pages[0])
		if out, err := c.Decompress(nil, comp); err != nil || !bytes.Equal(out, pages[0]) {
			t.Errorf("%s: decode after a corrupt block: %v", c.Name(), err)
		}
	}
}

// TestZstdEncoderBaseWrap drives the table's position base to the edge of
// uint32: the block that would overflow it must clear the table and still
// emit the fresh encoder's bytes.
func TestZstdEncoderBaseWrap(t *testing.T) {
	pg := corpus.NewGenerator(corpus.Dickens, 3).Page(0, 4096)
	want := MustLookup("zstd").Compress(nil, pg)
	for _, base := range []uint32{0, math.MaxUint32 - 2*4096, math.MaxUint32 - 4096 - 1, math.MaxUint32 - 4096, math.MaxUint32 - 100, math.MaxUint32} {
		e := &zstdEncoder{base: base}
		for i := 0; i < 3; i++ { // the later blocks see the earlier ones' table entries
			if got := e.compress(nil, pg); !bytes.Equal(got, want) {
				t.Errorf("base %d, block %d: output differs from a fresh encoder", base, i)
			}
		}
	}
}

// TestScratchAllocsPerRun: a warmed Scratch compresses a page without
// allocating, for every codec — the property alloc_bytes_per_op rests on.
// The destination is warmed with it, as a push thread's codec-output
// buffer is.
func TestScratchAllocsPerRun(t *testing.T) {
	pages := goldenPages()
	for _, c := range allCodecs(t) {
		var s Scratch
		var dst []byte
		compress := func() {
			for _, pg := range pages {
				dst = s.Compress(c, dst[:0], pg)
			}
		}
		compress()
		if n := testing.AllocsPerRun(5, compress); n != 0 {
			t.Errorf("%s: %v allocations per %d pages on a warmed Scratch, want 0", c.Name(), n, len(pages))
		}
	}
}
