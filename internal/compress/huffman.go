package compress

// Canonical Huffman coding used by the zstd-class codec: an order-0
// entropy stage over byte streams. The table is transmitted as 256 4-bit
// code lengths (128 bytes) with a trivial zero-run shortcut; codes are
// limited to 15 bits via the standard length-limiting fold.

import "sort"

const huffMaxBits = 15

// bitWriter packs LSB-first bits.
type bitWriter struct {
	out  []byte
	acc  uint64
	nacc uint
}

func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc |= uint64(v) << w.nacc
	w.nacc += n
	for w.nacc >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

func (w *bitWriter) flush() {
	if w.nacc > 0 {
		w.out = append(w.out, byte(w.acc))
		w.acc = 0
		w.nacc = 0
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
	// Canonical order: by (length, symbol).
	for bits := uint8(1); bits <= huffMaxBits; bits++ {
		for s := 0; s < 256; s++ {
			if lengths[s] == bits {
				codes[s] = next[bits]
				next[bits]++
			}
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

// huffDecode decodes one huffEncode block from src, appending the
// original bytes to dst and returning the remaining input.
func huffDecode(dst, src []byte) ([]byte, []byte, error) {
	if len(src) == 0 {
		return dst, src, ErrCorrupt
	}
	kind := src[0]
	src = src[1:]
	n, used := readUvarint(src)
	if used <= 0 {
		return dst, src, ErrCorrupt
	}
	src = src[used:]
	if kind == 0 {
		if uint64(len(src)) < n {
			return dst, src, ErrCorrupt
		}
		return append(dst, src[:n]...), src[n:], nil
	}
	if kind != 1 || len(src) < 128 {
		return dst, src, ErrCorrupt
	}
	if n > 1<<24 {
		return dst, src, ErrCorrupt // absurd block; reject
	}
	var lengths [256]uint8
	for i := 0; i < 128; i++ {
		lengths[2*i] = src[i] & 0xf
		lengths[2*i+1] = src[i] >> 4
	}
	src = src[128:]

	// Build a decode table: map (reversed code, length) via a simple
	// length-indexed lookup per bit prefix. For 4 KB blocks a bit-by-bit
	// walk with per-length code ranges is fast enough and simple.
	type rng struct {
		first uint32 // first canonical code of this length
		count uint32
		base  int // index into symsByOrder
	}
	var ranges [huffMaxBits + 1]rng
	var symsByOrder []int
	{
		var count [huffMaxBits + 1]uint32
		for _, l := range lengths {
			if l > 0 {
				count[l]++
			}
		}
		code := uint32(0)
		base := 0
		for bits := 1; bits <= huffMaxBits; bits++ {
			code = (code + count[bits-1]) << 1
			ranges[bits] = rng{first: code, count: count[bits], base: base}
			base += int(count[bits])
		}
		symsByOrder = make([]int, 0, base)
		for bits := uint8(1); bits <= huffMaxBits; bits++ {
			for s := 0; s < 256; s++ {
				if lengths[s] == bits {
					symsByOrder = append(symsByOrder, s)
				}
			}
		}
	}

	r := bitReader{in: src}
	out := uint64(0)
	for out < n {
		code := uint32(0)
		var bits uint8
		found := false
		for bits = 1; bits <= huffMaxBits; bits++ {
			b, ok := r.readBits(1)
			if !ok {
				return dst, src, ErrCorrupt
			}
			code = code<<1 | b
			rg := ranges[bits]
			if rg.count > 0 && code >= rg.first && code < rg.first+rg.count {
				dst = append(dst, byte(symsByOrder[rg.base+int(code-rg.first)]))
				found = true
				break
			}
		}
		if !found {
			return dst, src, ErrCorrupt
		}
		out++
	}
	// Consumed bytes: r.pos minus whole bytes still buffered in acc.
	rem := src[r.pos-int(r.nacc/8):]
	return dst, rem, nil
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
