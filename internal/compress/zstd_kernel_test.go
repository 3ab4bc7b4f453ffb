package compress

import (
	"bytes"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/stats"
)

// huffDecodeWalk is the reference Huffman decoder: the same header, then
// every symbol by the bit walk, the reader fed a byte at a time — the
// decoder the primary table replaced, and still its slow path.
func huffDecodeWalk(dst, src []byte) ([]byte, []byte, error) {
	var d huffDecoder
	n, body, coded, err := d.header(src)
	if err != nil {
		return dst, body, err
	}
	if !coded {
		return append(dst, body[:n]...), body[n:], nil
	}
	r := bitReader{in: body}
	for ; n > 0; n-- {
		sym, ok := d.walk(&r)
		if !ok {
			return dst, body, ErrCorrupt
		}
		dst = append(dst, sym)
	}
	return dst, body[r.pos-int(r.nacc/8):], nil
}

// huffHeader builds a coded block's header by hand: n symbols, the given
// (symbol, length) pairs, every other symbol unused.
func huffHeader(n int, lengths map[byte]uint8) []byte {
	var l [256]uint8
	for s, v := range lengths {
		l[s] = v
	}
	b := appendUvarint([]byte{1}, uint64(n))
	for i := 0; i < 256; i += 2 {
		b = append(b, l[i]|l[i+1]<<4)
	}
	return b
}

// fibonacciBytes is 22 symbols with Fibonacci frequencies, which force the
// deepest Huffman tree: codes of every length up to the 15-bit limit, most
// of them past the primary table.
func fibonacciBytes() []byte {
	var out []byte
	for s, a, b := 0, 1, 1; s < 22; s, a, b = s+1, b, a+b {
		out = append(out, bytes.Repeat([]byte{byte(s)}, a)...)
	}
	return out
}

// FuzzHuffDecodeTable holds the table-driven decoder to the bit walk on
// arbitrary input: the same bytes out, the same input left over, the same
// verdict — on valid blocks, on truncated ones and on headers no encoder
// writes.
func FuzzHuffDecodeTable(f *testing.F) {
	rng := stats.NewRNG(7)
	noise := make([]byte, 600)
	for i := range noise {
		noise[i] = byte(rng.Uint32())
	}
	deep := fibonacciBytes()
	rng.Shuffle(len(deep), func(i, j int) { deep[i], deep[j] = deep[j], deep[i] })
	deepEnc := huffEncode(nil, deep)
	text := huffEncode(nil, corpus.NewGenerator(corpus.Dickens, 1).Page(0, 4096))
	single := huffEncode(nil, bytes.Repeat([]byte{7}, 1000))
	for _, seed := range [][]byte{
		deepEnc, text, single,
		huffEncode(nil, noise),              // raw block
		huffEncode(nil, nil),                // empty raw block
		append(bytes.Clone(text), noise...), // input left over after the block
		deepEnc[:len(deepEnc)-1],            // truncated tails
		deepEnc[:len(deepEnc)-9],
		text[:len(text)/2],
		text[:140],
		single[:len(single)-1],
		append(huffHeader(1000, map[byte]uint8{7: 1}), noise...),                     // a 1 bit where only 0 is a code
		append(huffHeader(300, map[byte]uint8{0: 2, 1: 2, 2: 3}), noise...),          // incomplete: Kraft sum 5/8
		append(huffHeader(300, map[byte]uint8{0: 1, 1: 1, 2: 1, 3: 2}), noise...),    // over-subscribed
		append(huffHeader(300, map[byte]uint8{0: 1, 1: 13, 2: 14, 3: 15}), noise...), // long codes, incomplete
		append(huffHeader(0, map[byte]uint8{0: 1, 1: 1}), noise...),                  // no symbols
		huffHeader(5, nil),          // no codes at all
		{1, 0xFF, 0xFF, 0xFF, 0x7F}, // absurd length
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix := []byte("dst")
		want, wantRem, wantErr := huffDecodeWalk(bytes.Clone(prefix), data)
		got, gotRem, gotErr := huffDecode(bytes.Clone(prefix), data)
		if gotErr != wantErr {
			t.Fatalf("table decoder: err %v, bit walk: %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("table decoder: %d bytes out, bit walk %d (err %v)", len(got), len(want), wantErr)
		}
		if !bytes.Equal(gotRem, wantRem) {
			t.Fatalf("table decoder leaves %d bytes of input, bit walk %d", len(gotRem), len(wantRem))
		}
	})
}

// TestHuffDecodeLongCodes: the seeds above must exercise what they claim
// to — a block whose codes outgrow the primary table, decoded exactly.
func TestHuffDecodeLongCodes(t *testing.T) {
	src := fibonacciBytes()
	enc := huffEncode(nil, src)
	var d huffDecoder
	if _, _, coded, err := d.header(enc); err != nil || !coded {
		t.Fatalf("header: coded %v, err %v", coded, err)
	}
	if d.tableBits != huffTableBits || d.ranges[huffMaxBits].count == 0 {
		t.Fatalf("table %d bits, %d codes of %d bits: the block does not reach past the table", d.tableBits, d.ranges[huffMaxBits].count, huffMaxBits)
	}
	huffRoundTrip(t, src)
}

// zstdBestMatchUnguarded is the chain walk as it was before the
// early-outs: every candidate within depth and window gets its four-byte
// compare and, on a hit, its full match length.
func zstdBestMatchUnguarded(src []byte, chain []int32, cand, pos int) (bestLen, bestOff int) {
	for c, tries := cand, zstdDepth; c >= 0 && tries > 0; tries-- {
		off := pos - c
		if off > zstdWindow {
			break
		}
		if load32(src, c) == load32(src, pos) {
			if l := lz4MatchLen(src, c, pos, len(src)); l > bestLen {
				bestLen, bestOff = l, off
			}
		}
		c = int(chain[c]) - 1
	}
	return bestLen, bestOff
}

// TestZstdBestMatchGuards: the next-byte reject and the end-of-block
// break choose the match the unguarded walk chooses, at every position of
// every input — the encoder inserts every position into the chain, in
// order, so the full chain built here is the one it searches.
func TestZstdBestMatchGuards(t *testing.T) {
	var inputs [][]byte
	for i, pg := range goldenPages() {
		if i%64 < 8 { // one page of every size, for every profile
			inputs = append(inputs, pg)
		}
	}
	period3 := bytes.Repeat([]byte("abc"), 1500)
	tail := append(corpus.NewGenerator(corpus.Random, 9).Page(0, 3000), period3[:700]...)
	tail = append(tail, tail[100:612]...) // the last match ends exactly at n
	inputs = append(inputs,
		bytes.Repeat([]byte{0xAA}, 4096),
		period3,
		tail,
		append(bytes.Repeat([]byte("abcdefgh"), 40), "abcd"...),
		corpus.NewGenerator(corpus.Dickens, 5).Page(0, 70000), // candidates past the window
	)
	for i, src := range inputs {
		n := len(src)
		if n < zstdMinMatch+4 {
			continue
		}
		chain := make([]int32, n)
		var head [1 << zstdHashLog]int32
		for pos := 0; pos <= n-4; pos++ {
			cur := load32(src, pos)
			h := zstdHash(cur)
			chain[pos] = head[h]
			head[h] = int32(pos) + 1
			cand := int(chain[pos]) - 1
			wantLen, wantOff := zstdBestMatchUnguarded(src, chain, cand, pos)
			gotLen, gotOff := zstdBestMatch(src, chain, cand, pos, cur)
			if gotLen != wantLen || gotOff != wantOff {
				t.Fatalf("input %d (%d bytes) pos %d: guarded walk chose (%d, %d), unguarded (%d, %d)", i, n, pos, gotLen, gotOff, wantLen, wantOff)
			}
		}
	}
}

// TestZstdDecompressCorruptMatch: a match length no page could hold is a
// corrupt block, not an allocation.
func TestZstdDecompressCorruptMatch(t *testing.T) {
	tokens := appendUvarint(nil, 1)       // one literal
	tokens = appendUvarint(tokens, 1<<40) // then an absurd match
	tokens = append(tokens, 1, 0)         // at offset 1
	block := append([]byte{0, 1, 'x', 0}, appendUvarint(nil, uint64(len(tokens)))...)
	block = append(block, tokens...)
	var s Scratch
	c := MustLookup("zstd")
	if out, err := c.Decompress(nil, block); err != ErrCorrupt || len(out) > 1 {
		t.Errorf("stateless: %d bytes, err %v; want ErrCorrupt", len(out), err)
	}
	if out, err := s.Decompress(c, nil, block); err != ErrCorrupt || len(out) > 1 {
		t.Errorf("scratch: %d bytes, err %v; want ErrCorrupt", len(out), err)
	}
}
