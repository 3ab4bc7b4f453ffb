package compress

import "math"

// zstd-class codec, built from scratch: an LZ77 stage with a hash-chain
// matcher (64 KB window, depth-32 search, like zstd's greedy levels)
// followed by order-0 canonical-Huffman entropy coding (huffman.go) of the
// two output streams — literals and sequence tokens — separately, echoing
// zstd's separation of literal and sequence sections. It does not
// reproduce the RFC 8878 bitstream; DESIGN.md records the substitution.
//
// Block layout:
//
//	block    := huffBlock(literals) huffBlock(tokens)
//	tokens   := { seq } ; decoded until exhausted
//	seq      := litLen varint, matchLen varint,
//	            offset(2B little-endian, present iff matchLen > 0)
//
// matchLen stores length-zstdMinMatch+1, the length at most zstdMaxMatch;
// the final sequence has matchLen == 0 (carrying trailing literals only).

const (
	zstdMinMatch = 4
	zstdHashLog  = 14
	zstdDepth    = 32
	zstdWindow   = 65535
)

// Zstd2 is the from-scratch zstd-class codec registered as "zstd".
type Zstd2 struct{}

// NewZstd returns the zstd-class codec.
func NewZstd() *Zstd2 { return &Zstd2{} }

// Name implements Codec.
func (*Zstd2) Name() string { return "zstd" }

func zstdHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - zstdHashLog)
}

// zstdEncoder is the encoder's working state. Nothing in it carries
// information from one block to the next — a reused encoder and a fresh
// one emit identical bytes — it only saves rebuilding the state per page:
//
//   - table holds base-relative positions (base+pos+1), so entries left by
//     earlier blocks read as "no candidate" (<= base) and the 64 KB table is
//     cleared only when base would overflow, not per block;
//   - chain, literals and tokens keep their capacity;
//   - huff is the array-backed Huffman tree workspace.
type zstdEncoder struct {
	table    [1 << zstdHashLog]uint32
	base     uint32
	chain    []int32
	literals []byte
	tokens   []byte
	huff     huffBuilder
}

// Compress implements Codec with a throwaway encoder on the caller's
// stack; owners that compress many pages reuse one through Scratch.
func (*Zstd2) Compress(dst, src []byte) []byte {
	var e zstdEncoder
	return e.compress(dst, src)
}

func (*Zstd2) compressScratch(s *Scratch, dst, src []byte) []byte {
	if s.zstd == nil {
		s.zstd = new(zstdEncoder)
	}
	return s.zstd.compress(dst, src)
}

func (e *zstdEncoder) emitSeq(lits []byte, matchLen, offset int) {
	e.tokens = appendUvarint(e.tokens, uint64(len(lits)))
	if matchLen > 0 {
		e.tokens = appendUvarint(e.tokens, uint64(matchLen-zstdMinMatch+1))
		e.tokens = append(e.tokens, byte(offset), byte(offset>>8))
	} else {
		e.tokens = appendUvarint(e.tokens, 0)
	}
	e.literals = append(e.literals, lits...)
}

// zstdBestMatch walks pos's hash chain from cand, at most zstdDepth
// candidates deep and zstdWindow bytes back, and returns the longest
// match's length and offset — the nearest candidate's on a tie, 0, 0 when
// nothing matches four bytes. cur is the four bytes at pos; chain[p] is
// the previous position sharing p's hash, plus one.
func zstdBestMatch(src []byte, chain []int32, cand, pos int, cur uint32) (bestLen, bestOff int) {
	n := len(src)
	for c, tries := cand, zstdDepth; c >= 0 && tries > 0; tries-- {
		off := pos - c
		if off > zstdWindow {
			break
		}
		// A candidate beats bestLen only if it also matches the byte
		// just past it; most of a deep chain does not.
		if src[c+bestLen] == src[pos+bestLen] && load32(src, c) == cur {
			if l := lz4MatchLen(src, c, pos, n); l > bestLen {
				bestLen, bestOff = l, off
				if pos+l == n {
					break // reaches the end of the block: nothing is longer
				}
			}
		}
		c = int(chain[c]) - 1
	}
	return bestLen, bestOff
}

func (e *zstdEncoder) compress(dst, src []byte) []byte {
	n := len(src)
	e.literals, e.tokens = e.literals[:0], e.tokens[:0]

	if n >= zstdMinMatch+4 {
		if uint64(e.base)+uint64(n) >= math.MaxUint32 {
			clear(e.table[:])
			e.base = 0
		}
		base := e.base
		e.base += uint32(n)
		if cap(e.chain) < n {
			e.chain = make([]int32, n)
		}
		// chain[p] is written before any candidate walk can reach p, so
		// stale entries are never read.
		chain := e.chain[:n]
		table := &e.table
		// A table entry is base+position+1; at or below base it predates
		// this block. max(v, base)-base is position+1 within the block, 0
		// for "no candidate".
		anchor := 0
		pos := 0
		limit := n - 4
		for pos <= limit {
			cur := load32(src, pos)
			h := zstdHash(cur)
			prev := int32(max(table[h], base) - base)
			table[h] = base + uint32(pos) + 1
			chain[pos] = prev
			if prev == 0 {
				pos++ // an empty chain has no match to look for
				continue
			}
			bestLen, bestOff := zstdBestMatch(src, chain, int(prev)-1, pos, cur)
			bestLen = min(bestLen, zstdMaxMatch)
			if bestLen < zstdMinMatch {
				pos++
				continue
			}
			e.emitSeq(src[anchor:pos], bestLen, bestOff)
			end := pos + bestLen
			for p := pos + 1; p < end && p <= limit; p++ {
				hh := zstdHash(load32(src, p))
				chain[p] = int32(max(table[hh], base) - base)
				table[hh] = base + uint32(p) + 1
			}
			pos = end
			anchor = pos
		}
		e.emitSeq(src[anchor:], 0, 0)
	} else {
		e.emitSeq(src, 0, 0)
	}

	dst = e.huff.encode(dst, e.literals)
	return e.huff.encode(dst, e.tokens)
}

// zstdDecoder is the decoder's working state: the two entropy-decoded
// streams and the Huffman tables. Like the encoder's, it carries nothing
// from one block to the next.
type zstdDecoder struct {
	literals []byte
	tokens   []byte
	huff     huffDecoder
}

// zstdMaxMatch bounds one sequence's match length: the longest whose
// matchLen fits two varint bytes, about four pages (a page's own longest
// match runs from its second byte to its end). The encoder splits a longer
// run of a bigger input; the decoder rejects one as a corrupt length.
const zstdMaxMatch = 1<<14 - 1 + zstdMinMatch - 1

// zstdMaxExpansion bounds what a block of srcLen bytes can decode to.
// Every literal and token byte costs at least one bit of input, raw or
// Huffman-coded, so there are at most 8·srcLen of them. A match of up to
// 130 bytes spends four token bytes (litLen, matchLen, the offset's two),
// a longer one five, so no literal or token byte decodes to more than
// zstdMaxMatch/5 bytes of output.
func zstdMaxExpansion(srcLen int) int { return 8 * srcLen * zstdMaxMatch / 5 }

// Decompress implements Codec with a throwaway decoder on the caller's
// stack.
func (*Zstd2) Decompress(dst, src []byte) ([]byte, error) {
	var d zstdDecoder
	return d.decompress(dst, src)
}

func (d *zstdDecoder) decompress(dst, src []byte) ([]byte, error) {
	base := len(dst)
	var err error
	d.literals, src, err = d.huff.decode(d.literals[:0], src)
	if err != nil {
		return dst, err
	}
	d.tokens, src, err = d.huff.decode(d.tokens[:0], src)
	if err != nil {
		return dst, err
	}
	if len(src) != 0 {
		return dst, ErrCorrupt
	}
	literals, tokens := d.literals, d.tokens

	litPos := 0
	i := 0
	for i < len(tokens) {
		litLen, used := readUvarint(tokens[i:])
		if used <= 0 {
			return dst, ErrCorrupt
		}
		i += used
		if uint64(litPos)+litLen > uint64(len(literals)) {
			return dst, ErrCorrupt
		}
		dst = append(dst, literals[litPos:litPos+int(litLen)]...)
		litPos += int(litLen)

		mlCode, used := readUvarint(tokens[i:])
		if used <= 0 {
			return dst, ErrCorrupt
		}
		i += used
		if mlCode == 0 {
			continue // literal-only (final) sequence
		}
		if mlCode > zstdMaxMatch-zstdMinMatch+1 {
			return dst, ErrCorrupt
		}
		matchLen := int(mlCode) + zstdMinMatch - 1
		if i+2 > len(tokens) {
			return dst, ErrCorrupt
		}
		offset := int(tokens[i]) | int(tokens[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst)-base {
			return dst, ErrCorrupt
		}
		dst = appendMatch(dst, offset, matchLen)
	}
	if litPos != len(literals) {
		return dst, ErrCorrupt
	}
	return dst, nil
}
