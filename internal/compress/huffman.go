package compress

// Canonical Huffman coding used by the zstd-class codec: an order-0
// entropy stage over byte streams. The table is transmitted as 256 4-bit
// code lengths (128 bytes) with a trivial zero-run shortcut; codes are
// limited to 15 bits via the standard length-limiting fold.

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

const huffMaxBits = 15

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
// 511 nodes and a 256-entry heap, a depth per node and the length-limit
// fold's symbol order. Every build overwrites what it reads, so a builder
// reused across blocks (zstdEncoder) and a fresh one on the caller's stack
// (huffEncode) produce identical lengths.
type huffBuilder struct {
	nodes   [511]huffNode
	heap    [256]int16 // node indexes, a binary min-heap by weight
	heapW   [256]int64 // heapW[i] is nodes[heap[i]].weight
	heapLen int
	depth   [511]uint8
	syms    [256]uint8
}

// push adds node i, of weight w. The sift-up is a hole too: an ancestor
// moves down while strictly heavier than w, which is the swap loop's
// "stop at a parent no heavier" with the swaps' stores left out.
func (hb *huffBuilder) push(i int, w int64) {
	c := hb.heapLen
	hb.heapLen++
	for c > 0 {
		p := (c - 1) / 2
		if hb.heapW[p] <= w {
			break
		}
		hb.heap[c], hb.heapW[c] = hb.heap[p], hb.heapW[p]
		c = p
	}
	hb.heap[c], hb.heapW[c] = int16(i), w
}

// pop removes the root and sifts the last element down from it as a hole:
// the smaller child (the right one only when strictly lighter than the
// left) moves up while it is strictly lighter than the element in hand.
// That is the two-compare swap rule — lighter-than-parent left child, then
// a right child lighter than whichever of the two stands — move for move
// (DESIGN.md §12), so the heap's tie order, which decides which of two
// equal-weight subtrees gets the longer code, is the one the goldens pin.
func (hb *huffBuilder) pop() int {
	heap, heapW := &hb.heap, &hb.heapW
	top := heap[0]
	hb.heapLen--
	n := hb.heapLen
	last, w := heap[n], heapW[n]
	c := 0
	// Slot n still holds w, so a left child with no sibling meets w there:
	// if w is the lighter the loop ends either way, if not the left child
	// stands, as it would alone.
	for child := 1; child < n; child = 2*c + 1 {
		right := 0
		if heapW[child+1] < heapW[child] {
			right = 1
		}
		child += right
		cw := heapW[child]
		if cw >= w {
			break
		}
		heap[c], heapW[c] = heap[child], cw
		c = child
	}
	heap[c], heapW[c] = last, w
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
			hb.push(numNodes, f)
			numNodes++
		}
	}
	numLeaves := numNodes
	switch numLeaves {
	case 0:
		return lengths
	case 1:
		lengths[nodes[0].sym] = 1
		return lengths
	}
	for hb.heapLen > 1 {
		a := hb.pop()
		b := hb.pop()
		w := nodes[a].weight + nodes[b].weight
		nodes[numNodes] = huffNode{weight: w, sym: -1, left: int16(a), right: int16(b)}
		hb.push(numNodes, w)
		numNodes++
	}
	// A node is created after both its children, so one pass from the root
	// (the last node) down the array meets every parent before its
	// children. A leaf sits at depth >= 1 here and at most 255 (a fully
	// skewed 256-leaf tree).
	depth := &hb.depth
	depth[numNodes-1] = 0
	for i := numNodes - 1; i >= numLeaves; i-- {
		d := depth[i] + 1
		depth[nodes[i].left], depth[nodes[i].right] = d, d
	}
	over := false
	for i := 0; i < numLeaves; i++ {
		lengths[nodes[i].sym] = depth[i]
		over = over || depth[i] > huffMaxBits
	}
	if over {
		hb.fold(&lengths, freq, numLeaves)
	}
	return lengths
}

// fold limits lengths to huffMaxBits: clamp, then repair the Kraft sum by
// lengthening symbols from the least frequent up, ties in symbol order so
// the result is a function of freq alone. The leaves are nodes[:numLeaves].
func (hb *huffBuilder) fold(lengths *[256]uint8, freq *[256]int64, numLeaves int) {
	syms := hb.syms[:numLeaves]
	kraft := int64(0)
	for i := range syms {
		s := uint8(hb.nodes[i].sym)
		syms[i] = s
		lengths[s] = min(lengths[s], huffMaxBits)
		kraft += int64(1) << (huffMaxBits - lengths[s])
	}
	slices.SortFunc(syms, func(a, b uint8) int {
		if c := cmp.Compare(freq[a], freq[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	limit := int64(1) << huffMaxBits
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

// huffFLog2Bits is the fixed point of huffFLog2: 2^-16 bit.
const huffFLog2Bits = 16

// huffFLog2Max is the longest block the entropy bound is tabulated for: a
// page's literals or tokens. f·log2(f)·2^16 is below 2^32 up to here.
const huffFLog2Max = 4096

// huffFLog2[f] is f·log2(f) in 2^-16 bits, exact when f is a power of two
// and otherwise rounded up with a unit to spare: math.Log2's error scaled
// by f·2^16 < 2^32 is under 2^-18 of a unit, so the entry is above the
// true value and below it plus 2. It is filled once, before main, and
// lives in the data segment.
var huffFLog2 [huffFLog2Max + 1]uint32

func init() {
	for f := 2; f <= huffFLog2Max; f++ {
		x := float64(f) * math.Log2(float64(f)) * (1 << huffFLog2Bits)
		huffFLog2[f] = uint32(math.Ceil(x))
		if f&(f-1) != 0 {
			huffFLog2[f]++
		}
	}
}

// huffHeaderBytes is what a coded block spends before its bitstream beyond
// what a raw block spends: the 128 bytes of code lengths, and the 4 the
// estimate has always added.
const huffHeaderBytes = 128 + 4

// rawCertain reports whether the n > 0 bytes counted in freq are certain
// to be emitted raw, without building their code: it is true only if
// every prefix code's cost, plus the header, reaches n. A code spends at
// least one bit a symbol, and — Kraft's inequality, which the length
// limit's fold keeps — at least the order-0 entropy
//
//	n·H0 = n·log2(n) − Σ f·log2(f)
//
// bits in all. The bound is taken from below: the n term gives back the
// table's rounding (an entry is less than 2 units high, so entry−3 is
// low), the f terms keep theirs. A whole number of bits no smaller than
// the bound is no smaller than its ceiling. False means "not proven": the
// caller builds the code and decides as it always has.
func rawCertain(freq *[256]int64, n int) bool {
	if rawAtOneBit(n) {
		return true
	}
	if n > huffFLog2Max {
		return false
	}
	sum := int64(0)
	for _, f := range freq {
		sum += int64(huffFLog2[f])
	}
	lb := (int64(huffFLog2[n]) - 3 - sum + 1<<huffFLog2Bits - 1) >> huffFLog2Bits
	return (lb+7)/8+huffHeaderBytes >= int64(n)
}

// rawAtOneBit is rawCertain's verdict on the length alone: at one bit a
// symbol, the least any code spends, n bytes still do not beat the header
// (n <= 151).
func rawAtOneBit(n int) bool { return (n+7)/8+huffHeaderBytes >= n }

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

// appendRawBlock appends src as a raw block.
func appendRawBlock(dst, src []byte) []byte {
	dst = append(dst, 0)
	dst = appendUvarint(dst, uint64(len(src)))
	return append(dst, src...)
}

// encode is huffEncode building its tree in hb.
func (hb *huffBuilder) encode(dst, src []byte) []byte {
	if len(src) == 0 {
		return append(dst, 0, 0) // raw block, length 0
	}
	if rawAtOneBit(len(src)) {
		return appendRawBlock(dst, src) // not worth counting
	}
	// Four tables, so a run of one byte value is not a chain of
	// store-to-load forwards through one counter. A lane cannot wrap: the
	// decoder refuses a coded block above 2^24 symbols, and no caller
	// comes near.
	var lanes [4][256]uint32
	i := 0
	for ; i+4 <= len(src); i += 4 {
		lanes[0][src[i]]++
		lanes[1][src[i+1]]++
		lanes[2][src[i+2]]++
		lanes[3][src[i+3]]++
	}
	for ; i < len(src); i++ {
		lanes[0][src[i]]++
	}
	var freq [256]int64
	for s := range freq {
		freq[s] = int64(lanes[0][s]) + int64(lanes[1][s]) + int64(lanes[2][s]) + int64(lanes[3][s])
	}
	if rawCertain(&freq, len(src)) {
		return appendRawBlock(dst, src)
	}
	lengths := hb.lengths(&freq)

	cost := int64(0)
	for s, f := range freq {
		cost += f * int64(lengths[s])
	}
	body := (cost + 7) / 8
	if body+huffHeaderBytes >= int64(len(src)) {
		return appendRawBlock(dst, src)
	}

	dst = append(dst, 1) // coded block
	dst = appendUvarint(dst, uint64(len(src)))
	for i := 0; i < 256; i += 2 {
		dst = append(dst, lengths[i]|lengths[i+1]<<4)
	}
	// One entry a symbol, code | length<<24. Canonical order is (length,
	// symbol): one pass in symbol order hands each length's codes out
	// ascending. Codes are MSB-first and the bit IO LSB-first: each used
	// code is reversed once here, not once per byte.
	var count [huffMaxBits + 1]uint32
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	var next [huffMaxBits + 1]uint32
	for nb, code := 1, uint32(0); nb <= huffMaxBits; nb++ {
		code = (code + count[nb-1]) << 1
		next[nb] = code
	}
	var table [256]uint32
	for s, l := range lengths {
		if l > 0 {
			table[s] = uint32(bits.Reverse16(uint16(next[l]))>>(16-l)) | uint32(l)<<24
			next[l]++
		}
	}
	// The body's size is known: write it in place. Three codes are at most
	// 45 bits, so with under 8 carried the accumulator takes three symbols
	// between stores; each store writes all eight bytes and keeps the whole
	// ones, the next overwrites the rest. The last store's tail is the
	// slack grown here and cut off below.
	start := len(dst)
	dst = slices.Grow(dst, int(body)+8)[:start+int(body)+8]
	out := dst[start:]
	var acc uint64
	var nacc, pos uint
	i = 0
	for ; i+3 <= len(src); i += 3 {
		e0, e1, e2 := table[src[i]], table[src[i+1]], table[src[i+2]]
		acc |= uint64(e0&0xFFFFFF) << nacc
		nacc += uint(e0 >> 24)
		acc |= uint64(e1&0xFFFFFF) << nacc
		nacc += uint(e1 >> 24)
		acc |= uint64(e2&0xFFFFFF) << nacc
		nacc += uint(e2 >> 24)
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += nacc >> 3
		acc >>= nacc &^ 7
		nacc &= 7
	}
	for ; i < len(src); i++ {
		e := table[src[i]]
		acc |= uint64(e&0xFFFFFF) << nacc
		nacc += uint(e >> 24)
	}
	binary.LittleEndian.PutUint64(out[pos:], acc)
	return dst[:start+int(body)]
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
