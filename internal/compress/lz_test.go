package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"tierscape/internal/corpus"
)

// lzGoldenInputs is 64 pages of every content profile plus, on three
// profiles, the block lengths where the LZ encoders change behaviour: the
// literal-only sizes below a match, a page either side of 4096, and the
// three that straddle the uint16-table limit.
func lzGoldenInputs() [][]byte {
	var in [][]byte
	for _, prof := range corpus.Profiles() {
		g := corpus.NewGenerator(prof, 42)
		for i := 0; i < 64; i++ {
			in = append(in, g.Page(uint64(i), 4096))
		}
	}
	for _, prof := range []corpus.Profile{corpus.NCI, corpus.Dickens, corpus.Random} {
		g := corpus.NewGenerator(prof, 7)
		for i, n := range []int{0, 1, 5, 12, 13, 100, 1000, 4095, 4096, 65535, 65536, 70000} {
			in = append(in, g.Page(uint64(i), n))
		}
	}
	return in
}

// TestLZOutputGolden pins the output bytes of the LZ-family codecs: the
// hashes were recorded from the encoders this PR's replaced (one generic
// lz4/lz4hc function with a 32 KB table cleared per block, lzo staging its
// items), so neither the stateless path nor a reused Scratch may change a
// byte — tier ratios, admission decisions and every figure depend on them.
func TestLZOutputGolden(t *testing.T) {
	want := map[string]struct {
		n   int
		sum string
	}{
		"lz4":     {1003400, "6c9142a284c8d7bbcb85a160384a527fb89c1e9d3ccfe015ca67a29d174046fb"},
		"lz4hc":   {939523, "729b9c2b583e6434d31078e5e26021ef89f8cd011c461f151c306ac1736fe9cb"},
		"lzo":     {1043255, "8a5aadad63d83bef91e5d821dad54cd8795a023f5de6bd14dae971918a979b08"},
		"lzo-rle": {1041228, "2391c4f389f726cdcc518ec5eba2dd461751528c13707fdd1dca23bdcd1daac6"},
	}
	inputs := lzGoldenInputs()
	for _, name := range []string{"lz4", "lz4hc", "lzo", "lzo-rle"} {
		c := MustLookup(name)
		var s Scratch
		for _, tc := range []struct {
			path     string
			compress func(dst, src []byte) []byte
		}{
			{"stateless", c.Compress},
			{"scratch", func(dst, src []byte) []byte { return s.Compress(c, dst, src) }},
		} {
			h := sha256.New()
			total := 0
			var out []byte
			for _, in := range inputs {
				out = tc.compress(out[:0], in)
				total += len(out)
				h.Write(out)
			}
			if got := hex.EncodeToString(h.Sum(nil)); total != want[name].n || got != want[name].sum {
				t.Errorf("%s/%s: {%d, %q}", name, tc.path, total, got)
			}
		}
	}
}

// The encoder lz4 used until its depth-0 path was split out, verbatim: one
// function for lz4 (depth 0) and lz4hc, a position table cleared per block,
// four byte loads per probe, sequences appended field by field. It lives
// here only, as the reference FuzzLZ4EncoderIdentical holds the new one to.

func refLoad32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

func refLZ4CompressGeneric(dst, src []byte, depth int) []byte {
	n := len(src)
	if n == 0 {
		// Empty block: single token with zero literals.
		return append(dst, 0)
	}
	if n < lz4MFLimit+1 {
		return refLZ4EmitLastLiterals(dst, src)
	}

	var table [1 << lz4HashLog]int32 // position+1 of last occurrence
	var chain []int32
	if depth > 0 {
		chain = make([]int32, n) // previous position with same hash, +1
	}

	anchor := 0
	pos := 0
	limit := n - lz4MFLimit

	for pos <= limit {
		h := lz4Hash(refLoad32(src, pos))
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if depth > 0 {
			chain[pos] = int32(cand + 1)
		}

		bestLen := 0
		bestOff := 0
		tries := depth
		if tries == 0 {
			tries = 1
		}
		for c := cand; c >= 0 && tries > 0; tries-- {
			off := pos - c
			if off > lz4MaxOffset {
				break
			}
			if refLoad32(src, c) == refLoad32(src, pos) {
				l := lz4MatchLen(src, c, pos, n-lz4LastLiterals)
				if l > bestLen {
					bestLen = l
					bestOff = off
				}
			}
			if depth == 0 {
				break
			}
			c = int(chain[c]) - 1
		}

		if bestLen < lz4MinMatch {
			pos++
			continue
		}

		// Emit sequence: literals [anchor,pos) then match.
		dst = refLZ4EmitSequence(dst, src[anchor:pos], bestOff, bestLen)
		// Insert skipped positions into the table so future matches can
		// reference inside this match (cheap for depth>0 quality).
		end := pos + bestLen
		if depth > 0 {
			for p := pos + 1; p < end && p <= limit; p++ {
				hh := lz4Hash(refLoad32(src, p))
				chain[p] = table[hh]
				table[hh] = int32(p + 1)
			}
		}
		pos = end
		anchor = pos
	}

	return refLZ4EmitLastLiterals(dst, src[anchor:])
}

func refLZ4EmitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	ml := matchLen - lz4MinMatch

	tok := byte(0)
	if litLen >= lz4TokenMaxLit {
		tok = lz4TokenMaxLit << 4
	} else {
		tok = byte(litLen) << 4
	}
	if ml >= lz4TokenMaxMatch {
		tok |= lz4TokenMaxMatch
	} else {
		tok |= byte(ml)
	}
	dst = append(dst, tok)
	if litLen >= lz4TokenMaxLit {
		dst = refLZ4EmitLen(dst, litLen-lz4TokenMaxLit)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= lz4TokenMaxMatch {
		dst = refLZ4EmitLen(dst, ml-lz4TokenMaxMatch)
	}
	return dst
}

func refLZ4EmitLen(dst []byte, rem int) []byte {
	for rem >= 255 {
		dst = append(dst, 255)
		rem -= 255
	}
	return append(dst, byte(rem))
}

func refLZ4EmitLastLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= lz4TokenMaxLit {
		dst = append(dst, lz4TokenMaxLit<<4)
		dst = refLZ4EmitLen(dst, litLen-lz4TokenMaxLit)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

// FuzzLZ4EncoderIdentical holds the lz4 and lz4hc encoders to the retired
// generic one byte for byte, on a fresh encoder and on one Scratch reused
// across the blocks — of different lengths — an input is cut into. The
// 70 000-byte seeds start the whole-input check on the wide-table path.
func FuzzLZ4EncoderIdentical(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add(bytes.Repeat([]byte{0xAA}, 5000), uint16(4096))
	f.Add(bytes.Repeat([]byte("abc"), 3000), uint16(7))
	f.Add(corpus.NewGenerator(corpus.Dickens, 1).Page(0, 2*4096+100), uint16(4096))
	f.Add(corpus.NewGenerator(corpus.Binary, 1).Page(0, 4096), uint16(13))
	f.Add(corpus.NewGenerator(corpus.Random, 1).Page(0, 2500), uint16(1000))
	f.Add(corpus.NewGenerator(corpus.Dickens, 2).Page(0, 70000), uint16(65535))
	f.Add(corpus.NewGenerator(corpus.NCI, 2).Page(0, 70000), uint16(30000))
	lz4, lz4hc := MustLookup("lz4"), MustLookup("lz4hc")
	f.Fuzz(func(t *testing.T, data []byte, step uint16) {
		var s Scratch
		var got []byte
		check := func(block []byte) {
			want := refLZ4CompressGeneric(nil, block, 0)
			if got = lz4.Compress(got[:0], block); !bytes.Equal(got, want) {
				t.Fatalf("lz4: fresh encoder emitted %d bytes, reference %d, for a %d-byte block", len(got), len(want), len(block))
			}
			if got = s.Compress(lz4, got[:0], block); !bytes.Equal(got, want) {
				t.Fatalf("lz4: reused encoder emitted %d bytes, reference %d, for a %d-byte block", len(got), len(want), len(block))
			}
			if len(block) > 2*4096 {
				return // the 64-deep search is quadratic on long repetitive blocks
			}
			want = refLZ4CompressGeneric(nil, block, lz4hcDepth)
			if got = lz4hc.Compress(got[:0], block); !bytes.Equal(got, want) {
				t.Fatalf("lz4hc: fresh encoder emitted %d bytes, reference %d, for a %d-byte block", len(got), len(want), len(block))
			}
			if got = s.Compress(lz4hc, got[:0], block); !bytes.Equal(got, want) {
				t.Fatalf("lz4hc: reused encoder emitted %d bytes, reference %d, for a %d-byte block", len(got), len(want), len(block))
			}
		}
		check(data)
		// Then cut into blocks of step bytes, at most 16 of them, through
		// the same scratch: each sees the table entries of the ones before.
		n := int(step)
		if n == 0 || len(data)/n >= 16 {
			n = len(data)/16 + 1
		}
		for len(data) > 0 {
			block := data[:min(n, len(data))]
			data = data[len(block):]
			check(block)
		}
	})
}

// TestLZ4TableBaseWrap drives the table's position base to the edge of
// uint16: the block that would overflow it must clear the table and still
// emit the fresh encoder's bytes, and the blocks after it must not match
// into what the blocks before left behind.
func TestLZ4TableBaseWrap(t *testing.T) {
	g := corpus.NewGenerator(corpus.Dickens, 3)
	pages := [][]byte{g.Page(0, 4096), g.Page(1, 4096), g.Page(0, 4095), g.Page(2, 100)}
	for _, base := range []uint16{0, math.MaxUint16 - 2*4096, math.MaxUint16 - 4096 - 1, math.MaxUint16 - 4096, math.MaxUint16 - 100, math.MaxUint16} {
		e := &lz4Encoder{base: base}
		for i := 0; i < 40; i++ { // 40 pages cross the edge at least twice from any start
			pg := pages[i%len(pages)]
			if got, want := e.compress(nil, pg), refLZ4CompressGeneric(nil, pg, 0); !bytes.Equal(got, want) {
				t.Fatalf("base %d, block %d: output differs from the reference encoder", base, i)
			}
		}
	}
	// A full-width block leaves base at the edge whatever it was.
	big := g.Page(9, math.MaxUint16)
	e := new(lz4Encoder)
	for i := 0; i < 3; i++ {
		if got, want := e.compress(nil, big), refLZ4CompressGeneric(nil, big, 0); !bytes.Equal(got, want) {
			t.Fatalf("65535-byte block %d: output differs from the reference encoder", i)
		}
		if got, want := e.compress(nil, pages[0]), refLZ4CompressGeneric(nil, pages[0], 0); !bytes.Equal(got, want) {
			t.Fatalf("page after 65535-byte block %d: output differs from the reference encoder", i)
		}
	}
}
