package compress

// Canonical Huffman coding used by the zstd-class codec: an order-0
// entropy stage over byte streams. The table is transmitted as 256 4-bit
// code lengths (128 bytes) with a trivial zero-run shortcut; codes are
// limited to 15 bits via the standard length-limiting fold.

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
)

const huffMaxBits = 15

// bitWriter packs LSB-first bits, at most 32 a call, and hands them to
// out four bytes at a time.
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

// bitReader reads LSB-first bits.
type bitReader struct {
	in   []byte
	pos  int
	acc  uint64
	nacc uint
}

func (r *bitReader) readBits(n uint) (uint32, bool) {
	for r.nacc < n {
		if r.pos >= len(r.in) {
			return 0, false
		}
		r.acc |= uint64(r.in[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
	v := uint32(r.acc & ((1 << n) - 1))
	r.acc >>= n
	r.nacc -= n
	return v, true
}

// huffNode is one Huffman tree node; sym < 0 marks an internal node.
type huffNode struct {
	weight      int64
	sym         int16
	left, right int16 // indexes into huffBuilder.nodes
}

// huffBuilder is the tree-construction workspace: at most 256 leaves, so
// 511 nodes, a 256-entry heap and a depth-first stack of at most 257
// pending nodes. Every build overwrites what it reads, so a builder reused
// across blocks (zstdEncoder) and a fresh one on the caller's stack
// (huffEncode) produce identical lengths.
type huffBuilder struct {
	nodes   [511]huffNode
	heap    [256]int16 // node indexes, a binary min-heap by weight
	heapLen int
	stack   [512]struct {
		idx   int16
		depth uint8
	}
}

func (hb *huffBuilder) push(i int) {
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

func (hb *huffBuilder) pop() int {
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

// lengths computes length-limited canonical code lengths for the symbol
// frequencies (package-merge-free heuristic: build a Huffman tree, then
// fold over-long codes down to huffMaxBits).
func (hb *huffBuilder) lengths(freq *[256]int64) [256]uint8 {
	nodes := &hb.nodes
	hb.heapLen = 0
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
	// Depth-first depth assignment; a leaf sits at depth >= 1 here and at
	// most 255 (a fully skewed 256-leaf tree).
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
	// Length-limit: fold codes longer than huffMaxBits using Kraft repair.
	over := false
	for _, l := range lengths {
		if l > huffMaxBits {
			over = true
			break
		}
	}
	if over {
		// Clamp and then fix the Kraft sum by lengthening the shallowest
		// longest-code symbols.
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
		// While over-subscribed, demote symbols (increase length) starting
		// from the least frequent.
		sort.Slice(syms, func(a, b int) bool { return freq[syms[a]] < freq[syms[b]] })
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

// canonicalCodes assigns canonical code values from lengths.
func canonicalCodes(lengths *[256]uint8) [256]uint32 {
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
	// Canonical order is (length, symbol): one pass in symbol order hands
	// each length's codes out ascending.
	for s, l := range lengths {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// reverseBits reverses the low n bits of v (canonical codes are MSB-first;
// the bit IO here is LSB-first).
func reverseBits(v uint32, n uint8) uint32 {
	var out uint32
	for i := uint8(0); i < n; i++ {
		out = out<<1 | (v & 1)
		v >>= 1
	}
	return out
}

// huffEncode appends a Huffman-coded block of src to dst:
//
//	header: origLen varint | 128 bytes of 4-bit code lengths
//	body:   LSB-first bitstream of canonical codes
//
// Code lengths above 15 never occur. If coding would expand the data, a
// raw block is emitted instead (flag byte 0 = raw, 1 = coded).
func huffEncode(dst, src []byte) []byte {
	var hb huffBuilder
	return hb.encode(dst, src)
}

// encode is huffEncode building its tree in hb.
func (hb *huffBuilder) encode(dst, src []byte) []byte {
	if len(src) == 0 {
		return append(dst, 0, 0) // raw block, length 0
	}
	var freq [256]int64
	for _, b := range src {
		freq[b]++
	}
	lengths := hb.lengths(&freq)
	codes := canonicalCodes(&lengths)

	// Estimate coded size.
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
	// Canonical codes are MSB-first, the bit IO LSB-first: reverse each
	// used code once, not once per byte.
	for s, l := range lengths {
		if l > 0 {
			codes[s] = reverseBits(codes[s], l)
		}
	}
	w := bitWriter{out: dst}
	for _, b := range src {
		w.writeBits(codes[b], uint(lengths[b]))
	}
	w.flush()
	return w.out
}

// huffTableBits is the widest primary decode table: 2^11 two-byte entries
// (4 KB, half an L1) resolve every code of up to 11 bits in one lookup.
// A symbol with a longer code has probability under 2^-11, so the walk
// below runs for a handful of symbols a page.
const huffTableBits = 11

// huffRange is one code length's slice of the canonical code space.
type huffRange struct {
	first uint32 // first canonical code of this length
	count uint32
	base  int // index of its first symbol in huffDecoder.syms
}

// huffDecoder is the decoder's per-block state: the canonical code ranges
// and symbol order the bit walk reads, and the primary table built from
// them. Every block rebuilds all of it, so a decoder reused across blocks
// (Scratch) and a fresh one on the caller's stack decode identically.
type huffDecoder struct {
	ranges [huffMaxBits + 1]huffRange
	syms   [256]uint8 // symbols in canonical (length, symbol) order
	// table maps the next tableBits input bits (LSB-first, as the reader
	// holds them) to length<<8 | symbol; 0 marks a prefix no code of at
	// most tableBits bits owns — a longer code, or a hole in an
	// incomplete code set — which the walk resolves.
	table     [1 << huffTableBits]uint16
	tableBits uint
}

// refill tops the accumulator up to at least 56 bits, or to the end of
// the input. The eight-byte load may leave bits of the next, uncounted
// byte above nacc; they are that byte's true bits, and whichever load
// counts it later ORs the same bits over them.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.in) {
		r.acc |= binary.LittleEndian.Uint64(r.in[r.pos:]) << r.nacc
		whole := (63 - r.nacc) >> 3
		r.pos += int(whole)
		r.nacc += whole * 8
		return
	}
	for r.nacc <= 56 && r.pos < len(r.in) {
		r.acc |= uint64(r.in[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// huffDecode decodes one huffEncode block from src, appending the
// original bytes to dst and returning the remaining input.
func huffDecode(dst, src []byte) ([]byte, []byte, error) {
	var d huffDecoder
	return d.decode(dst, src)
}

// header parses a block's header and returns what follows it. For a raw
// block (coded false) that is the n payload bytes, then the rest of the
// input; for a coded block it is the bitstream of n symbols, whose code
// ranges and table header has loaded.
func (d *huffDecoder) header(src []byte) (n uint64, body []byte, coded bool, err error) {
	if len(src) == 0 {
		return 0, src, false, ErrCorrupt
	}
	kind := src[0]
	src = src[1:]
	n, used := readUvarint(src)
	if used <= 0 {
		return 0, src, false, ErrCorrupt
	}
	src = src[used:]
	if kind == 0 {
		if uint64(len(src)) < n {
			return 0, src, false, ErrCorrupt
		}
		return n, src, false, nil
	}
	if kind != 1 || len(src) < 128 {
		return 0, src, false, ErrCorrupt
	}
	if n > 1<<24 {
		return 0, src, false, ErrCorrupt // absurd block; reject
	}
	var lengths [256]uint8
	for i := 0; i < 128; i++ {
		lengths[2*i] = src[i] & 0xf
		lengths[2*i+1] = src[i] >> 4
	}
	d.load(&lengths)
	return n, src[128:], true, nil
}

// load derives the canonical ranges and symbol order from the code
// lengths, and the primary table from those. The table is built only for
// a code set that is not over-subscribed (Kraft sum <= 1): then the codes
// are prefix-free and each table slot has at most one owner. A corrupt,
// over-subscribed header leaves tableBits 0 and the whole block to the
// walk, whose shortest-match-wins rule is the format's meaning there.
func (d *huffDecoder) load(lengths *[256]uint8) {
	var count [huffMaxBits + 1]uint32
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	var next [huffMaxBits + 1]int
	code, base, maxBits := uint32(0), 0, 0
	kraft := uint32(0)
	for nb := 1; nb <= huffMaxBits; nb++ {
		code = (code + count[nb-1]) << 1
		d.ranges[nb] = huffRange{first: code, count: count[nb], base: base}
		next[nb] = base
		base += int(count[nb])
		kraft += count[nb] << (huffMaxBits - nb)
		if count[nb] > 0 {
			maxBits = nb
		}
	}
	for s, l := range lengths {
		if l > 0 {
			d.syms[next[l]] = uint8(s)
			next[l]++
		}
	}

	d.tableBits = 0
	if kraft > 1<<huffMaxBits || maxBits == 0 {
		return
	}
	d.tableBits = uint(min(maxBits, huffTableBits))
	// Restricted to codes of at most k bits the table has period 2^k, so
	// it is grown by doubling: copy what the shorter codes own, then give
	// each k-bit code its one new slot. The reader is LSB-first and codes
	// are MSB-first: a code's slot is its bit reversal. Slots no code
	// owns stay 0 through every copy.
	table := d.table[:1<<d.tableBits]
	table[0] = 0
	for nb, size := 1, 1; nb <= int(d.tableBits); nb, size = nb+1, size*2 {
		copy(table[size:2*size], table[:size])
		rg := d.ranges[nb]
		for i := uint32(0); i < rg.count; i++ {
			slot := bits.Reverse16(uint16(rg.first+i)) >> (16 - nb)
			table[slot] = uint16(nb)<<8 | uint16(d.syms[rg.base+int(i)])
		}
	}
}

// walk decodes one symbol a bit at a time against the per-length code
// ranges: the reference decoder, and the path for codes longer than the
// table, for the last bits of the input, and for anything corrupt. It
// reports false when the input ends or no code matches within
// huffMaxBits.
func (d *huffDecoder) walk(r *bitReader) (byte, bool) {
	code := uint32(0)
	for nb := 1; nb <= huffMaxBits; nb++ {
		b, ok := r.readBits(1)
		if !ok {
			return 0, false
		}
		code = code<<1 | b
		rg := &d.ranges[nb]
		if rg.count > 0 && code >= rg.first && code < rg.first+rg.count {
			return d.syms[rg.base+int(code-rg.first)], true
		}
	}
	return 0, false
}

// decode is huffDecode keeping its tables in d.
func (d *huffDecoder) decode(dst, src []byte) ([]byte, []byte, error) {
	n, body, coded, err := d.header(src)
	if err != nil {
		return dst, body, err
	}
	if !coded {
		return append(dst, body[:n]...), body[n:], nil
	}
	// Every symbol takes at least one bit, so a header cannot ask for
	// more room than its body could fill.
	dst = slices.Grow(dst, int(min(n, 8*uint64(len(body)))))
	r := bitReader{in: body}
	if tb := d.tableBits; tb != 0 {
		table := d.table[:1<<tb]
		for n > 0 {
			r.refill()
			if r.nacc < tb {
				break // the input's last few bits: the walk finishes
			}
			for ; n > 0 && r.nacc >= tb; n-- {
				e := table[r.acc&uint64(len(table)-1)]
				if e == 0 {
					sym, ok := d.walk(&r)
					if !ok {
						return dst, body, ErrCorrupt
					}
					dst = append(dst, sym)
					continue
				}
				dst = append(dst, byte(e))
				r.acc >>= e >> 8
				r.nacc -= uint(e >> 8)
			}
		}
	}
	for ; n > 0; n-- {
		sym, ok := d.walk(&r)
		if !ok {
			return dst, body, ErrCorrupt
		}
		dst = append(dst, sym)
	}
	// Consumed bytes: r.pos minus whole bytes still buffered in acc.
	return dst, body[r.pos-int(r.nacc/8):], nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func readUvarint(src []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range src {
		if i > 9 {
			return 0, -1
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, -1
}
