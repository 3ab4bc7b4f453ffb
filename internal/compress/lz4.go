package compress

// LZ4 block format (https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md):
//
//	sequence := token [litlen-ext*] literals offset(2B LE) [matchlen-ext*]
//
// The token's high nibble is the literal length (15 => extension bytes
// follow), the low nibble is match length - 4 (15 => extension bytes
// follow). The block ends with a literals-only sequence. Matches must not
// start within the last 12 bytes and the last 5 bytes are always literals
// (mmlimit rules), which this encoder honors so any conforming decoder can
// decode its output.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

const (
	lz4MinMatch      = 4
	lz4HashLog       = 13
	lz4LastLiterals  = 5
	lz4MFLimit       = 12 // match must end >= 12 bytes before block end
	lz4MaxOffset     = 65535
	lz4TokenMaxLit   = 15
	lz4TokenMaxMatch = 15
)

// LZ4 is the fast greedy LZ4 block codec.
type LZ4 struct{}

// NewLZ4 returns the lz4 codec.
func NewLZ4() *LZ4 { return &LZ4{} }

// Name implements Codec.
func (*LZ4) Name() string { return "lz4" }

func lz4Hash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lz4HashLog)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// lz4Encoder is the fast encoder's working state: the hash table for
// blocks a uint16 can index, which is every page. Entries are
// base-relative positions (base+pos+1), so what earlier blocks left behind
// reads as "no candidate" (<= base) and the table is cleared only when
// base would overflow — every 16th page — not per block. Nothing carries
// from one block to the next: a reused encoder and a fresh one emit
// identical bytes.
type lz4Encoder struct {
	table [1 << lz4HashLog]uint16
	base  uint16
}

// Compress implements Codec using a single-probe hash table (greedy parse),
// matching the effort profile of the reference fast compressor, with a
// throwaway encoder on the caller's stack; owners that compress many pages
// reuse one through Scratch.
func (*LZ4) Compress(dst, src []byte) []byte {
	var e lz4Encoder
	return e.compress(dst, src)
}

func (*LZ4) compressScratch(s *Scratch, dst, src []byte) []byte {
	if s.lz4 == nil {
		s.lz4 = new(lz4Encoder)
	}
	return s.lz4.compress(dst, src)
}

// Decompress implements Codec.
func (*LZ4) Decompress(dst, src []byte) ([]byte, error) {
	return lz4Decompress(dst, src)
}

func (e *lz4Encoder) compress(dst, src []byte) []byte {
	n := len(src)
	if n > math.MaxUint16 {
		// Positions no longer fit the table's entries; a block this long
		// pays for a wide table of its own.
		var table [1 << lz4HashLog]uint32
		return lz4CompressFast(&table, 0, dst, src)
	}
	if int(e.base)+n > math.MaxUint16 {
		clear(e.table[:])
		e.base = 0
	}
	base := e.base
	e.base += uint16(n)
	return lz4CompressFast(&e.table, base, dst, src)
}

// lz4CompressFast is the lz4 encoder: one hash probe per position, the
// first 4-byte match taken and extended (greedy parse). table entries at
// or below base predate this block.
func lz4CompressFast[T uint16 | uint32](table *[1 << lz4HashLog]T, base T, dst, src []byte) []byte {
	n := len(src)
	if n == 0 {
		// Empty block: single token with zero literals.
		return append(dst, 0)
	}
	if n < lz4MFLimit+1 {
		return lz4EmitLastLiterals(dst, src)
	}
	anchor := 0
	limit := n - lz4MFLimit
	for {
		pos, cand := lz4NextMatch(table, base, src, anchor, limit)
		if pos > limit {
			return lz4EmitLastLiterals(dst, src[anchor:])
		}
		// pos+4 <= n-lz4LastLiterals, so the four matched bytes are in range.
		l := lz4MinMatch + lz4MatchLen(src, cand+lz4MinMatch, pos+lz4MinMatch, n-lz4LastLiterals)
		dst = lz4EmitSequence(dst, src[anchor:pos], pos-cand, l)
		anchor = pos + l
	}
}

// lz4NextMatch probes the positions from pos to limit, entering each in
// the table, and returns the first whose slot held a position within
// reach with the same four bytes, and that position; pos > limit if none
// did. It is the encoder's inner loop, kept apart so that only what a
// probe needs is live in it.
func lz4NextMatch[T uint16 | uint32](table *[1 << lz4HashLog]T, base T, src []byte, pos, limit int) (int, int) {
	for ; pos <= limit; pos++ {
		v := load32(src, pos)
		h := lz4Hash(v)
		cand := int(table[h]) - int(base) - 1 // negative: no candidate in this block
		table[h] = base + T(pos) + 1
		// Whether the slot held a candidate is a coin toss on data that
		// does not compress, so it is not branched on: a missing candidate
		// reads position 0 and fails the compare through its sign bits.
		miss := cand >> (bits.UintSize - 1)
		if load32(src, cand&^miss)^v|uint32(miss) == 0 && pos-cand <= lz4MaxOffset {
			return pos, cand
		}
	}
	return pos, 0
}

// lz4hcEncoder is the deep encoder's reusable state: chain[p] is the
// previous position with p's hash, +1. Every entry is written before a
// candidate walk can reach it, so stale ones are never read.
type lz4hcEncoder struct {
	chain []int32
}

// lz4hcDepth is how many chained candidates lz4hc tries per position.
const lz4hcDepth = 64

// compress is lz4's block format searched through a hash chain of up to
// lz4hcDepth candidates per position, keeping the longest match.
func (e *lz4hcEncoder) compress(dst, src []byte) []byte {
	n := len(src)
	if n == 0 {
		return append(dst, 0)
	}
	if n < lz4MFLimit+1 {
		return lz4EmitLastLiterals(dst, src)
	}

	var table [1 << lz4HashLog]int32 // position+1 of last occurrence
	if cap(e.chain) < n {
		e.chain = make([]int32, n)
	}
	chain := e.chain[:n]

	anchor := 0
	pos := 0
	limit := n - lz4MFLimit

	for pos <= limit {
		h := lz4Hash(load32(src, pos))
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		chain[pos] = int32(cand + 1)

		bestLen := 0
		bestOff := 0
		for c, tries := cand, lz4hcDepth; c >= 0 && tries > 0; tries-- {
			off := pos - c
			if off > lz4MaxOffset {
				break
			}
			if load32(src, c) == load32(src, pos) {
				l := lz4MatchLen(src, c, pos, n-lz4LastLiterals)
				if l > bestLen {
					bestLen = l
					bestOff = off
				}
			}
			c = int(chain[c]) - 1
		}

		if bestLen < lz4MinMatch {
			pos++
			continue
		}

		// Emit sequence: literals [anchor,pos) then match.
		dst = lz4EmitSequence(dst, src[anchor:pos], bestOff, bestLen)
		// Insert skipped positions into the table so future matches can
		// reference inside this match.
		end := pos + bestLen
		for p := pos + 1; p < end && p <= limit; p++ {
			hh := lz4Hash(load32(src, p))
			chain[p] = table[hh]
			table[hh] = int32(p + 1)
		}
		pos = end
		anchor = pos
	}

	return lz4EmitLastLiterals(dst, src[anchor:])
}

// lz4MatchLen returns how many bytes match between src[a:] and src[b:],
// a < b, stopping before src[max]: eight bytes per step while they fit,
// the first differing byte found from the XOR's trailing zeros.
func lz4MatchLen(src []byte, a, b, max int) int {
	l := 0
	for b+l+8 <= max {
		if x := binary.LittleEndian.Uint64(src[a+l:]) ^ binary.LittleEndian.Uint64(src[b+l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
		l += 8
	}
	for b+l < max && src[a+l] == src[b+l] {
		l++
	}
	return l
}

// lz4LenExt is how many extension bytes follow a token nibble that
// saturated: rem is the length less the nibble's 15.
func lz4LenExt(rem int) int { return rem/255 + 1 }

// lz4PutLen writes rem's extension bytes at b[i:] and returns the index
// after them.
func lz4PutLen(b []byte, i, rem int) int {
	for ; rem >= 255; rem -= 255 {
		b[i] = 255
		i++
	}
	b[i] = byte(rem)
	return i + 1
}

// lz4LiteralsSize is what a sequence's token, literal-length extension
// and literals occupy.
func lz4LiteralsSize(litLen int) int {
	if litLen >= lz4TokenMaxLit {
		return 1 + lz4LenExt(litLen-lz4TokenMaxLit) + litLen
	}
	return 1 + litLen
}

// lz4PutLiterals writes that part of a sequence at b[i:] — matchNibble is
// the token's low half — and returns the index after it.
func lz4PutLiterals(b []byte, i int, literals []byte, matchNibble byte) int {
	litLen := len(literals)
	b[i] = byte(min(litLen, lz4TokenMaxLit))<<4 | matchNibble
	i++
	if litLen >= lz4TokenMaxLit {
		i = lz4PutLen(b, i, litLen-lz4TokenMaxLit)
	}
	return i + copy(b[i:], literals)
}

// lz4EmitSequence appends one sequence. It sizes the sequence first and
// writes it by index: a destination with room — every compressible page in
// a page-sized buffer — is never re-sliced per byte, and one without grows
// once, as append would have.
func lz4EmitSequence(dst, literals []byte, offset, matchLen int) []byte {
	ml := matchLen - lz4MinMatch
	size := lz4LiteralsSize(len(literals)) + 2
	if ml >= lz4TokenMaxMatch {
		size += lz4LenExt(ml - lz4TokenMaxMatch)
	}
	i := len(dst)
	dst = slices.Grow(dst, size)[:i+size]
	i = lz4PutLiterals(dst, i, literals, byte(min(ml, lz4TokenMaxMatch)))
	dst[i] = byte(offset)
	dst[i+1] = byte(offset >> 8)
	if ml >= lz4TokenMaxMatch {
		lz4PutLen(dst, i+2, ml-lz4TokenMaxMatch)
	}
	return dst
}

func lz4EmitLastLiterals(dst, literals []byte) []byte {
	i, size := len(dst), lz4LiteralsSize(len(literals))
	dst = slices.Grow(dst, size)[:i+size]
	lz4PutLiterals(dst, i, literals, 0)
	return dst
}

// lzMaxExpansion bounds what a block of the LZ family can decode to: a
// length-extension byte adds at most 255 bytes of output, and nothing else
// in either format yields more per input byte. A decoder that finds itself
// past the bound is reading corrupt input.
func lzMaxExpansion(srcLen int) int { return 255*srcLen + 64 }

// appendMatch appends the n bytes that start offset bytes before the end
// of dst, offset in [1, len(dst)]: in one copy when the match does not
// reach into itself, and otherwise by doubling — each round copies all
// that has been written of the repeating pattern so far.
func appendMatch(dst []byte, offset, n int) []byte {
	m := len(dst) - offset
	for n > offset {
		dst = append(dst, dst[m:]...)
		n -= offset
		offset *= 2
	}
	return append(dst, dst[m:m+n]...)
}

func lz4Decompress(dst, src []byte) ([]byte, error) {
	base := len(dst)
	maxLen := base + lzMaxExpansion(len(src))
	i := 0
	n := len(src)
	for i < n {
		tok := src[i]
		i++
		// Literals.
		litLen := int(tok >> 4)
		if litLen == lz4TokenMaxLit {
			for {
				if i >= n {
					return dst, ErrCorrupt
				}
				b := src[i]
				i++
				litLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if i+litLen > n {
			return dst, ErrCorrupt
		}
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if i == n {
			// Last sequence: literals only.
			return dst, nil
		}
		// Match.
		if i+2 > n {
			return dst, ErrCorrupt
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst)-base {
			return dst, ErrCorrupt
		}
		matchLen := int(tok & 0xf)
		if matchLen == lz4TokenMaxMatch {
			for {
				if i >= n {
					return dst, ErrCorrupt
				}
				b := src[i]
				i++
				matchLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		matchLen += lz4MinMatch
		if len(dst)+matchLen > maxLen {
			return dst, ErrCorrupt
		}
		dst = appendMatch(dst, offset, matchLen)
	}
	return dst, ErrCorrupt // must end with a literals-only sequence
}

// LZ4HC is the LZ4 block codec with a deeper chained-hash match search,
// trading compression speed for ratio — the "high compression" variant.
type LZ4HC struct{}

// NewLZ4HC returns the lz4hc codec.
func NewLZ4HC() *LZ4HC { return &LZ4HC{} }

// Name implements Codec.
func (*LZ4HC) Name() string { return "lz4hc" }

// Compress implements Codec with a 64-candidate chained search.
func (*LZ4HC) Compress(dst, src []byte) []byte {
	var e lz4hcEncoder
	return e.compress(dst, src)
}

func (*LZ4HC) compressScratch(s *Scratch, dst, src []byte) []byte {
	return s.lz4hc.compress(dst, src)
}

// Decompress implements Codec; the block format is identical to lz4.
func (*LZ4HC) Decompress(dst, src []byte) ([]byte, error) {
	return lz4Decompress(dst, src)
}
