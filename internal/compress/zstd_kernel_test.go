package compress

import (
	"bytes"
	"encoding/binary"
	"sort"
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
	for i := len(deep) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		deep[i], deep[j] = deep[j], deep[i]
	}
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
	if out, err := MustLookup("zstd").Decompress(nil, block); err != ErrCorrupt || len(out) > 1 {
		t.Errorf("%d bytes, err %v; want ErrCorrupt", len(out), err)
	}
}

// bitWriter is the reference encoder's bit output: it packs LSB-first
// bits, at most 32 a call, and hands them to out four bytes at a time.
type bitWriter struct {
	out  []byte
	acc  uint64
	nacc uint
}

func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc |= uint64(v) << w.nacc
	w.nacc += n
	if w.nacc >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc >>= 32
		w.nacc -= 32
	}
}

// flush writes out the buffered bits, the last byte zero-padded.
func (w *bitWriter) flush() {
	for ; w.nacc > 0; w.nacc -= min(w.nacc, 8) {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// huffRefBuilder is the Huffman encoder as it stood before the entropy
// guard: count, build the tree on a two-compare heap, assign depths with
// an explicit stack, fold, assign codes, sum the cost, and only then
// decide raw or coded. It is kept verbatim as the reference huffBuilder is
// held to — bar the fold's sort, which gained the symbol tie-break in both
// places (frequency alone left the order to the sort's implementation).
// folded reports whether the last lengths call reached the fold.
type huffRefBuilder struct {
	nodes   [511]huffNode
	heap    [256]int16
	heapLen int
	stack   [512]struct {
		idx   int16
		depth uint8
	}
	folded bool
}

func (hb *huffRefBuilder) push(i int) {
	c := hb.heapLen
	hb.heap[c] = int16(i)
	hb.heapLen++
	for c > 0 {
		p := (c - 1) / 2
		if hb.nodes[hb.heap[p]].weight <= hb.nodes[hb.heap[c]].weight {
			break
		}
		hb.heap[p], hb.heap[c] = hb.heap[c], hb.heap[p]
		c = p
	}
}

func (hb *huffRefBuilder) pop() int {
	top := hb.heap[0]
	hb.heapLen--
	n := hb.heapLen
	hb.heap[0] = hb.heap[n]
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		small := c
		if l < n && hb.nodes[hb.heap[l]].weight < hb.nodes[hb.heap[small]].weight {
			small = l
		}
		if r < n && hb.nodes[hb.heap[r]].weight < hb.nodes[hb.heap[small]].weight {
			small = r
		}
		if small == c {
			break
		}
		hb.heap[c], hb.heap[small] = hb.heap[small], hb.heap[c]
		c = small
	}
	return int(top)
}

func (hb *huffRefBuilder) lengths(freq *[256]int64) [256]uint8 {
	nodes := &hb.nodes
	hb.heapLen = 0
	hb.folded = false
	numNodes := 0
	var lengths [256]uint8
	for s, f := range freq {
		if f > 0 {
			nodes[numNodes] = huffNode{weight: f, sym: int16(s), left: -1, right: -1}
			hb.push(numNodes)
			numNodes++
		}
	}
	switch numNodes {
	case 0:
		return lengths
	case 1:
		lengths[nodes[0].sym] = 1
		return lengths
	}
	for hb.heapLen > 1 {
		a := hb.pop()
		b := hb.pop()
		nodes[numNodes] = huffNode{weight: nodes[a].weight + nodes[b].weight, sym: -1, left: int16(a), right: int16(b)}
		hb.push(numNodes)
		numNodes++
	}
	stack := &hb.stack
	stack[0].idx, stack[0].depth = hb.heap[0], 0
	for sp := 1; sp > 0; {
		sp--
		it := stack[sp]
		n := nodes[it.idx]
		if n.sym >= 0 {
			lengths[n.sym] = it.depth
			continue
		}
		stack[sp].idx, stack[sp].depth = n.left, it.depth+1
		stack[sp+1].idx, stack[sp+1].depth = n.right, it.depth+1
		sp += 2
	}
	over := false
	for _, l := range lengths {
		if l > huffMaxBits {
			over = true
			break
		}
	}
	if over {
		hb.folded = true
		var syms []int
		for s, l := range lengths {
			if l > 0 {
				if l > huffMaxBits {
					lengths[s] = huffMaxBits
				}
				syms = append(syms, s)
			}
		}
		kraft := int64(0)
		for _, s := range syms {
			kraft += int64(1) << (huffMaxBits - lengths[s])
		}
		limit := int64(1) << huffMaxBits
		sort.Slice(syms, func(a, b int) bool {
			if freq[syms[a]] != freq[syms[b]] {
				return freq[syms[a]] < freq[syms[b]]
			}
			return syms[a] < syms[b]
		})
		for kraft > limit {
			for _, s := range syms {
				if lengths[s] < huffMaxBits {
					kraft -= int64(1) << (huffMaxBits - lengths[s] - 1)
					lengths[s]++
					if kraft <= limit {
						break
					}
				}
			}
		}
	}
	return lengths
}

// refCanonicalCodes and refReverseBits are the code assignment the
// reference encoder was written against.
func refCanonicalCodes(lengths *[256]uint8) [256]uint32 {
	var codes [256]uint32
	var count [huffMaxBits + 1]int
	for _, l := range lengths {
		count[l]++
	}
	var next [huffMaxBits + 1]uint32
	code := uint32(0)
	count[0] = 0
	for bits := 1; bits <= huffMaxBits; bits++ {
		code = (code + uint32(count[bits-1])) << 1
		next[bits] = code
	}
	for s, l := range lengths {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

func refReverseBits(v uint32, n uint8) uint32 {
	var out uint32
	for i := uint8(0); i < n; i++ {
		out = out<<1 | (v & 1)
		v >>= 1
	}
	return out
}

func (hb *huffRefBuilder) encode(dst, src []byte) []byte {
	if len(src) == 0 {
		return append(dst, 0, 0) // raw block, length 0
	}
	var freq [256]int64
	for _, b := range src {
		freq[b]++
	}
	lengths := hb.lengths(&freq)
	codes := refCanonicalCodes(&lengths)

	bits := int64(0)
	for s, f := range freq {
		bits += f * int64(lengths[s])
	}
	coded := (bits+7)/8 + 128 + 4
	if coded >= int64(len(src)) {
		dst = append(dst, 0) // raw block
		dst = appendUvarint(dst, uint64(len(src)))
		return append(dst, src...)
	}

	dst = append(dst, 1) // coded block
	dst = appendUvarint(dst, uint64(len(src)))
	for i := 0; i < 256; i += 2 {
		dst = append(dst, lengths[i]|lengths[i+1]<<4)
	}
	for s, l := range lengths {
		if l > 0 {
			codes[s] = refReverseBits(codes[s], l)
		}
	}
	w := bitWriter{out: dst}
	for _, b := range src {
		w.writeBits(codes[b], uint(lengths[b]))
	}
	w.flush()
	return w.out
}

func huffEncodeRef(dst, src []byte) []byte {
	var hb huffRefBuilder
	return hb.encode(dst, src)
}

// byteFreq counts src as huffBuilder.encode does, for rawCertain.
func byteFreq(src []byte) (freq [256]int64) {
	for _, b := range src {
		freq[b]++
	}
	return freq
}

// dyadicBlock is a block with the given number of symbols at each
// power-of-two frequency. When the frequencies sum to a power of two every
// probability is a power of a half, Huffman coding meets the entropy
// exactly, and the bound rawCertain computes is the coded size itself: the
// blocks on which a bound one bit too eager shows.
func dyadicBlock(symbols map[int]int) []byte {
	var out []byte
	s := 0
	for f := 1 << 12; f > 0; f >>= 1 {
		for i := 0; i < symbols[f]; i, s = i+1, s+1 {
			out = append(out, bytes.Repeat([]byte{byte(s)}, f)...)
		}
	}
	return out
}

// dyadicSeeds are 4096-byte dyadic blocks either side of the raw verdict:
// coded (header included, as the encoder estimates it) to 4094, to 4095 —
// one bit more and the verdict flips — to 4096, raw by equality, and to
// 4097 and 4098.
var dyadicSeeds = []struct {
	symbols map[int]int
	coded   int
}{
	{map[int]int{32: 34, 16: 187, 8: 2}, 4094},
	{map[int]int{32: 34, 16: 187, 8: 1, 4: 2}, 4095},
	{map[int]int{32: 34, 16: 187, 4: 4}, 4096},
	{map[int]int{32: 34, 16: 187, 4: 2, 2: 4}, 4097},
	{map[int]int{32: 34, 16: 186, 8: 2, 4: 4}, 4098},
}

// nearThresholdPrefixes searches the prefixes of src for those the
// reference codes to within two bytes of their own length, either side:
// where a wrong raw verdict is one byte away.
func nearThresholdPrefixes(src []byte) [][]byte {
	var out [][]byte
	var hb huffRefBuilder
	var freq [256]int64
	for n := 1; n <= len(src); n++ {
		freq[src[n-1]]++
		if rawAtOneBit(n) {
			continue
		}
		lengths := hb.lengths(&freq)
		bits := int64(0)
		for s, f := range freq {
			bits += f * int64(lengths[s])
		}
		if d := (bits+7)/8 + huffHeaderBytes - int64(n); -2 <= d && d <= 2 {
			out = append(out, src[:n])
		}
	}
	return out
}

// FuzzHuffRawGuard holds the encoder to the reference that decides after
// building: whenever rawCertain claims a block the reference emits it raw,
// and the encoder's bytes are the reference's, claimed or not.
func FuzzHuffRawGuard(f *testing.F) {
	f.Add([]byte(nil))
	for _, n := range []int{1, 150, 151, 152, 153, 1000} {
		f.Add(bytes.Repeat([]byte{7}, n)) // one symbol: a bit each, no entropy
	}
	uniform := make([]byte, 4096)
	for i := range uniform {
		uniform[i] = byte(i)
	}
	f.Add(uniform)
	f.Add(uniform[:256])
	f.Add(corpus.NewGenerator(corpus.Random, 3).Page(0, 4096))
	f.Add(corpus.NewGenerator(corpus.Random, 3).Page(1, 5000)) // past the table
	f.Add(fibonacciBytes())
	for _, seed := range dyadicSeeds {
		f.Add(dyadicBlock(seed.symbols))
	}
	for _, prof := range []corpus.Profile{corpus.Dickens, corpus.Binary, corpus.Mixed} {
		var e zstdEncoder
		e.compress(nil, corpus.NewGenerator(prof, 11).Page(0, 4096))
		for _, stream := range [][]byte{e.literals, e.tokens} {
			for _, p := range nearThresholdPrefixes(stream) {
				f.Add(bytes.Clone(p))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := huffEncodeRef(nil, data)
		if len(data) > 0 {
			freq := byteFreq(data)
			if rawCertain(&freq, len(data)) && want[0] != 0 {
				t.Fatalf("rawCertain claims a %d-byte block the reference codes to %d", len(data), len(want))
			}
		}
		if got := huffEncode(nil, data); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes in: encoder wrote %d (kind %d), reference %d (kind %d)", len(data), len(got), got[0], len(want), want[0])
		}
	})
}

// TestHuffRawGuardSeeds: the fuzz seeds are what they claim to be — the
// dyadic blocks sit on the sizes listed, and the prefix search finds
// blocks on both sides of the threshold.
func TestHuffRawGuardSeeds(t *testing.T) {
	for _, tc := range dyadicSeeds {
		src := dyadicBlock(tc.symbols)
		if len(src) != 4096 {
			t.Fatalf("%v: %d bytes, want 4096", tc.symbols, len(src))
		}
		freq := byteFreq(src)
		var hb huffRefBuilder
		lengths := hb.lengths(&freq)
		bits := 0
		for s, f := range freq {
			bits += int(f) * int(lengths[s])
		}
		if coded := (bits+7)/8 + huffHeaderBytes; coded != tc.coded || bits%8 != 0 {
			t.Errorf("%v: %d bits, coded %d, want whole bytes and %d", tc.symbols, bits, coded, tc.coded)
		}
		// On a dyadic block the bound is the cost: the guard decides
		// every one of these itself.
		if got, want := rawCertain(&freq, len(src)), tc.coded >= 4096; got != want {
			t.Errorf("%v (coded %d): rawCertain %v, want %v", tc.symbols, tc.coded, got, want)
		}
	}
	var e zstdEncoder
	e.compress(nil, corpus.NewGenerator(corpus.Dickens, 11).Page(0, 4096))
	raw, coded := 0, 0
	for _, p := range nearThresholdPrefixes(e.literals) {
		if huffEncodeRef(nil, p)[0] == 0 {
			raw++
		} else {
			coded++
		}
	}
	if raw == 0 || coded == 0 {
		t.Errorf("prefix search: %d raw and %d coded blocks within two bytes of the threshold, want both", raw, coded)
	}
}

// TestHuffRawGuardCoverage counts the guard's verdicts over the golden
// pages' literal and token streams: it must claim (nearly) every block the
// reference emits raw — the tree it saves is the point — and none it codes.
func TestHuffRawGuardCoverage(t *testing.T) {
	var e zstdEncoder
	var ref huffRefBuilder
	blocks, pastTable, raw, claimed := 0, 0, 0, 0
	for _, pg := range goldenPages() {
		e.compress(nil, pg)
		for _, stream := range [][]byte{e.literals, e.tokens} {
			if len(stream) == 0 {
				continue
			}
			blocks++
			freq := byteFreq(stream)
			isRaw := ref.encode(nil, stream)[0] == 0
			certain := rawCertain(&freq, len(stream))
			if certain && !isRaw {
				t.Fatalf("rawCertain claims a %d-byte block the reference codes", len(stream))
			}
			if ref.folded {
				t.Fatalf("a golden page's %d-byte stream reaches the length-limit fold", len(stream))
			}
			if len(stream) > huffFLog2Max {
				// A 9000-byte page's stream: past the table, so left to
				// the build by design. A simulated page is 4096 bytes.
				if certain {
					t.Fatalf("rawCertain claims a %d-byte block, past its table", len(stream))
				}
				pastTable++
			} else if isRaw {
				raw++
				if certain {
					claimed++
				}
			}
		}
	}
	t.Logf("%d blocks, %d past the table; of the rest %d raw, %d of them claimed by the guard", blocks, pastTable, raw, claimed)
	if raw < blocks/4 || claimed*100 < raw*99 {
		t.Errorf("%d blocks: %d raw, the guard claims %d; want a quarter raw and 99%% of those claimed", blocks, raw, claimed)
	}
}

// TestHuffPopTieOrder: the hole sift-down (and the hole sift-up that feeds
// it) leaves the heap exactly as the retired swap loops do — same element
// out, same array after, at every step — on heaps where most weights tie.
// The order in which equal weights leave the heap decides which symbol
// gets the longer code, that is, output bytes.
func TestHuffPopTieOrder(t *testing.T) {
	rng := stats.NewRNG(17)
	var hb huffBuilder
	var ref huffRefBuilder
	same := func(step string) {
		t.Helper()
		// Slots past heapLen are dead in both; compare the live ones.
		if hb.heapLen != ref.heapLen {
			t.Fatalf("%s: heap length %d, reference %d", step, hb.heapLen, ref.heapLen)
		}
		for i := 0; i < hb.heapLen; i++ {
			if hb.heap[i] != ref.heap[i] {
				t.Fatalf("%s: heap[%d] = node %d, reference node %d", step, i, hb.heap[i], ref.heap[i])
			}
			if hb.heapW[i] != ref.nodes[ref.heap[i]].weight {
				t.Fatalf("%s: heapW[%d] = %d, its node weighs %d", step, i, hb.heapW[i], ref.nodes[ref.heap[i]].weight)
			}
		}
	}
	for trial := 0; trial < 10000; trial++ {
		n := 1 + rng.Intn(64)
		if trial%16 == 0 {
			n = 1 + rng.Intn(256) // the array check below is quadratic: mostly small heaps
		}
		spread := int64(1 + rng.Intn(6)) // 1..6 distinct weights: ties everywhere
		hb.heapLen, ref.heapLen = 0, 0
		for i := 0; i < n; i++ {
			w := 1 + rng.Int63n(spread)
			ref.nodes[i].weight = w
			hb.push(i, w)
			ref.push(i)
			same("push")
		}
		for hb.heapLen > 0 {
			if got, want := hb.pop(), ref.pop(); got != want {
				t.Fatalf("trial %d: popped node %d, reference node %d", trial, got, want)
			}
			same("pop")
		}
	}
}

// TestHuffLengthLimitFold drives the builder through the fold: Fibonacci
// frequencies make a tree deeper than 15, the fold must leave a decodable
// code of at most 15 bits that round-trips, and — the fold orders symbols
// by (frequency, symbol) in the builder's own workspace — a reused builder
// and a fresh one must agree to the byte, tied frequencies and all.
func TestHuffLengthLimitFold(t *testing.T) {
	src := fibonacciBytes() // 22 symbols, the first two tied at 1, depth 21
	if len(src) < 2584 {
		t.Fatalf("%d bytes: too few for a tree deeper than %d", len(src), huffMaxBits)
	}
	freq := byteFreq(src)
	var ref huffRefBuilder
	if ref.lengths(&freq); !ref.folded {
		t.Fatal("the Fibonacci block does not reach the fold")
	}
	var reused huffBuilder
	reused.encode(nil, corpus.NewGenerator(corpus.Dickens, 1).Page(0, 4096)) // leave a different tree behind
	lengths := reused.lengths(&freq)
	kraft := 0
	for s, l := range lengths {
		if l > huffMaxBits || (l == 0) != (freq[s] == 0) {
			t.Fatalf("symbol %d (frequency %d): length %d", s, freq[s], l)
		}
		if l > 0 {
			kraft += 1 << (huffMaxBits - l)
		}
	}
	if kraft > 1<<huffMaxBits {
		t.Fatalf("Kraft sum %d/%d: not decodable", kraft, 1<<huffMaxBits)
	}
	got := reused.encode(nil, src)
	if want := huffEncode(nil, src); !bytes.Equal(got, want) || got[0] != 1 {
		t.Fatalf("reused builder wrote %d bytes (kind %d), fresh one %d", len(got), got[0], len(want))
	}
	if want := huffEncodeRef(nil, src); !bytes.Equal(got, want) {
		t.Fatalf("encoder wrote %d bytes, reference %d", len(got), len(want))
	}
	huffRoundTrip(t, src)
}
